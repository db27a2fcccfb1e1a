"""Multi-UAV search for goal-oriented targets on road networks.

Road graphs are refined against a detection grid, per-target beliefs move
through compiled Markov models, and UAV teams pick search cells by entropy
gain. A seeded Monte Carlo simulator measures the probability of detecting
every target before any reaches its goal.
"""
