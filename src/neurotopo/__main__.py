"""``python -m neurotopo``: the neurotopo command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
