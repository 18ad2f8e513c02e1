# keeps the tests directory importable (oracles.py, corpus.py, sectors.py helpers)
