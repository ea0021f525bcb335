"""End-to-end and per-layer benchmark for machinpi; entry point run.py."""
