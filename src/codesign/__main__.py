"""``python -m codesign``: the same process entry as the ``codesign``
script, ``cli.run``, which runs the command with the cyclic garbage
collector off (see ``codesign.cli``)."""

from .cli import run

run()
