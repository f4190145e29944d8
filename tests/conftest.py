import hypothesis

# Derandomized so CI runs are byte-reproducible; no deadline because exact
# Fraction arithmetic has occasional slow examples that are not bugs.  The
# explain phase is left out: it only annotates a failure after shrinking,
# and on the long matrix-fold tests it ran for minutes before the failure
# was reported.
hypothesis.settings.register_profile(
    "kubota",
    derandomize=True,
    deadline=None,
    phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.explain],
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("kubota")
