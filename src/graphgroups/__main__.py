"""``python -m graphgroups``: the ``ggm`` command line."""

from .cli import run

run()
