"""Run the command-line interface: ``python -m artin SUBCOMMAND ...``."""

from .cli import entry

if __name__ == "__main__":
    entry()
