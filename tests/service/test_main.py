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
