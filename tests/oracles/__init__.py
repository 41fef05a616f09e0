"""Reference implementations kept only as differential test oracles.

Each module here is a straightforward, slower version of one production
layer.  The property suites run both over the same randomized inputs and
require identical output; nothing under ``src/`` imports these modules.
"""
