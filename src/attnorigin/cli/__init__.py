"""Command-line surface and report rendering."""
