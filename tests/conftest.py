"""Hypothesis profiles for the test suite.

tier1, loaded unless `--hypothesis-profile` names another, makes every run
check the same examples: `derandomize` seeds each test from its own source,
and with no example database a failure seen once cannot change what later
runs draw. Each test keeps its own `max_examples`.

explore draws afresh on every run and runs ten times each test's examples,
its own `max_examples` included, to look for what the fixed draws miss:

    python -m pytest -q --hypothesis-profile=explore -p no:benchmark tests/

Add `--hypothesis-seed=N` to repeat one exploring run's draws.
"""

from hypothesis import settings

pytest_plugins = ["pytester"]

EXPLORE_FACTOR = 10

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)
settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    """Under explore, scale the settings each Hypothesis test carries: a
    test's own `@settings`, or a state machine's `TestCase.settings`."""
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)        # a bound method's function
        for owner, name in ((test, "_hypothesis_internal_use_settings"),
                            (getattr(item, "cls", None), "settings")):
            own = getattr(owner, name, None)
            if isinstance(own, settings) and id(owner) not in scaled:
                scaled.add(id(owner))
                setattr(owner, name, settings(own, max_examples=EXPLORE_FACTOR
                                              * own.max_examples))
