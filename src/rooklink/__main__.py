"""``python -m rooklink``: the same command line as ``rooklink``."""

from .cli import main

raise SystemExit(main())
