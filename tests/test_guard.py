"""Every integer statistic is load-bearing: raised by one in its class's
statistic function, each of the 21 fields of `objects.INT_STAT_NAMES`
makes some registry check fail.  `tools/guard_map.py` sweeps the same
kind of mutant over every public function of the lower layers."""

import pytest

from combi import objects, verify

FIELDS = [(class_name, i, name)
          for class_name, names in objects.INT_STAT_NAMES.items()
          for i, name in enumerate(names)]


@pytest.mark.parametrize("class_name,i,name", FIELDS,
                         ids=[f"{c}-{name}" for c, _, name in FIELDS])
def test_raised_statistic_fails_a_check(class_name, i, name, monkeypatch):
    ints = objects.class_functions(class_name)[1]

    def raised(*leaf):
        values = list(ints(*leaf))
        values[i] += 1
        return tuple(values)

    monkeypatch.setattr(objects, ints.__name__, raised)
    failed = [rep.id for rep in verify.run_all(5) if rep.status == "fail"]
    assert failed, f"no check reads {class_name} {name}"
