from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# the bit-identity tests at five times suite's examples:
# pytest --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("suite"),
                          max_examples=500)
settings.load_profile("suite")
