"""Time reversal of Markov diffusions and random walks, with receipts.

Simulate a forward process, estimate or evaluate its marginal densities,
assemble the reversed drift or reversed jump intensities, and certify the
construction numerically: integration-by-parts residuals, continuity of the
current velocity, entropy and free-energy balances, and two-sample law
checks between the simulated reversal and the flipped forward ensemble.

Import each name from its module; the package itself loads none of them.
"""

__version__ = "0.1.0"
