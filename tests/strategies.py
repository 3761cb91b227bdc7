"""Hypothesis strategies built from the domains in oamsense.cli.KEYS.

raw_values(key) draws the text of a config value that key.parse accepts: a
value of its kind inside its bounds, one of its choices in any letter case,
"auto" where the key takes it, or a value its rule accepts.  The text is one
line with no "%", so it can be written into a config file as it is.
"""

import math

from hypothesis import strategies as st

from oamsense import cli

#: The integers each rule in cli.RULES accepts.
RULE_VALUES = {
    "a power of two >= 32": st.integers(5, 40).map(lambda k: 1 << k),
    "1 or -1": st.sampled_from((1, -1)),
}


def _letter_cases(word: str) -> st.SearchStrategy[str]:
    return st.sampled_from((word, word.upper(), word.title()))


def _numbers(key: cli.Key) -> st.SearchStrategy[str]:
    if key.rule is not None:
        return RULE_VALUES[key.rule].map(str)
    if key.kind is int:
        low = key.ge if key.gt is None else math.floor(key.gt) + 1
        high = None if key.le is None else math.floor(key.le)
        return st.integers(None if low is None else math.ceil(low), high).map(str)
    return st.floats(key.ge if key.gt is None else key.gt, key.le, exclude_min=key.gt is not None,
                     allow_nan=False, allow_infinity=False).map(repr)


def raw_values(key: cli.Key) -> st.SearchStrategy[str]:
    """Config text that key.parse accepts."""
    if key.kind is bool:
        return st.sampled_from(sorted(cli.BOOLEANS)).flatmap(_letter_cases)
    if key.choices:
        return st.sampled_from(key.choices).flatmap(_letter_cases)
    if key.kind is str:
        return st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="%"),
                       min_size=1)
    numbers = _numbers(key)
    return st.one_of(st.just("auto"), numbers) if key.auto else numbers
