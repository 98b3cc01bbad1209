"""System benchmark of the QAOA warm-start program; see README.md."""
