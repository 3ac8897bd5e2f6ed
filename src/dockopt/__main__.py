"""Run the command-line front end: ``python -m dockopt solve CONFIG``."""

import sys

from .cli import main

sys.exit(main())
