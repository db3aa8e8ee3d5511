"""Single source of the package version.

Lives in its own leaf module so low-level code (results provenance,
cache keys) can record the version without importing the package root
-- ``repro/__init__`` pulls in the whole simulator stack.
"""

__version__ = "1.1.0"
