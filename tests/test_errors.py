import pytest

import shapegain
from shapegain import errors
from shapegain.errors import ParameterError, build_section


def _sum(a, b=0):
    return a + b


def _raises(text):
    def build(**doc):
        raise TypeError(text)
    return build


# the CLI tests cover the unknown and missing keys of every document; these
# TypeErrors name no key of the document, so their text is kept
@pytest.mark.parametrize("build, doc, reason", [
    (_sum, {"a": "x"}, 'can only concatenate str (not "int") to str'),
    (_raises("f() got an unexpected keyword argument 'z'"), {"a": 1},
     "f() got an unexpected keyword argument 'z'"),
    (_raises("f() missing 1 required positional argument: 'a'"), {"a": 1},
     "f() missing 1 required positional argument: 'a'"),
], ids=["other", "unknown-elsewhere", "missing-elsewhere"])
def test_build_section_keeps_other_type_errors(build, doc, reason):
    with pytest.raises(ParameterError) as info:
        build_section("thing", build, doc)
    assert str(info.value) == f"bad thing: {reason}"


def test_one_exception_class_per_exit_code():
    # the CLI exits 1 on a ParameterError and 2 on a NumericalError; no
    # subclass draws a distinction that no handler acts on
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert defined == {"ShapegainError", "ParameterError", "NumericalError"}
    assert {name for name in defined if hasattr(shapegain, name)} == defined
