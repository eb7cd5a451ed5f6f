"""``python -m parallelobox``: the command line of :mod:`parallelobox.cli`."""
from .cli import main

raise SystemExit(main())
