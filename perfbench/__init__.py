"""The repository benchmark: see ``run.py`` and ``report.py``."""
