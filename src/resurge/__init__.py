"""Song-revival analytics for paired short-video / web-search popularity series."""
