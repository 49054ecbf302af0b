"""Entry point for ``python -m pathtiles``."""

import sys

from .cli import main

sys.exit(main())
