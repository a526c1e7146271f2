"""``python -m codesign``: the same process entry as the ``codesign``
script, ``cli.run``, which runs the command with the cyclic garbage
collector off and ends the process without interpreter teardown (see
``codesign.cli``)."""

from .cli import run

run()
