"""Seeded benchmark for rio_color_ray: the tile, resume and dedup paths.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
