"""``python -m spikefuse``: the ``spikefuse`` command line."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
