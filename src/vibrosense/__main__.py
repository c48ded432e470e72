"""`python -m vibrosense`: the command line of vibrosense.cli."""
from .cli import main

raise SystemExit(main())
