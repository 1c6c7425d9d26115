"""``python -m tractlab``: the ``tractlab`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
