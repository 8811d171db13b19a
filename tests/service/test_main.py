"""Argument checks of the service entry point (``python -m repro.service``)."""

import pytest

from repro.service.__main__ import main


@pytest.mark.parametrize("every", ["nan", "inf"])
def test_sample_every_must_be_positive_and_finite(capsys, every):
    """A NaN or infinite cadence never arms the flight recorder."""
    with pytest.raises(SystemExit) as exc:
        main(["--num-tasks", "5", "--sample-every", every])
    assert exc.value.code == 2
    assert "--sample-every" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_arrival_rate_must_be_positive_and_finite(capsys, rate):
    with pytest.raises(SystemExit) as exc:
        main(["--num-tasks", "5", "--arrival-rate", rate])
    assert exc.value.code == 2
    assert "--arrival-rate" in capsys.readouterr().err


def test_failure_mtbf_must_be_positive(capsys):
    """NaN is refused; infinity stays allowed, as it runs like no
    failures."""
    with pytest.raises(SystemExit) as exc:
        main(["--num-tasks", "5", "--failure-mtbf", "nan"])
    assert exc.value.code == 2
    assert "--failure-mtbf" in capsys.readouterr().err


@pytest.mark.parametrize("mttr", ["nan", "inf"])
def test_failure_mttr_must_be_positive_and_finite(capsys, mttr):
    with pytest.raises(SystemExit) as exc:
        main(["--num-tasks", "5", "--failure-mtbf", "100", "--failure-mttr", mttr])
    assert exc.value.code == 2
    assert "--failure-mttr" in capsys.readouterr().err
