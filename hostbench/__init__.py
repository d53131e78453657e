"""Host-cost benchmark of the FS-NewTOP reproduction (see README.md)."""
