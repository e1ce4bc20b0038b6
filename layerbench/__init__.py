"""Layered benchmark of the Figure 2 flow and the Opt-3 fleet loop."""
