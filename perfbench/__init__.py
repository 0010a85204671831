"""End-to-end benchmark of the RENO reproduction (see ``run.py``)."""
