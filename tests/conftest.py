"""Shared test settings.

The "property" hypothesis profile is the budget of the property tests that
compare a fast or merged path with the reference it replaced; use it as
`@settings.get_profile("property")` or through a module-level PROPERTY.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "property", max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
