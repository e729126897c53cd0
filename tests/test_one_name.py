"""One name per route.

A design's ``method`` is the ``DESIGN_METHODS`` name of the route that
built it, the name ``--method``, sweeps, figures and the design export
use; a spectrum source's value is its ``--source`` choice.  The second
spellings (the ``DesignMethod`` enum with ``PairSolve``, ``ClosedForm``
and ``Minimax``, the ``DftOracle`` value and the CLI's ``_SOURCES``
table) are gone.
"""

import json

import pytest

import consensus_spectra
from consensus_spectra import Kind, SpectrumSource, design_export_dict, full_spectrum
from consensus_spectra import cli
from consensus_spectra.design import DESIGN_METHODS
from conftest import grid_models, pure_parity


def _sample():
    # every pair route solves these: catalogued parity, no 3-ring
    models = [
        m
        for a in (0.0, 0.3, 0.9)
        for m in grid_models(a)
        if pure_parity(m) and not (m.kind is Kind.RING and m.n == 3)
    ]
    return models[::23]


SAMPLE = _sample()


def _choices(command, option):
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    (action,) = [a for a in commands[command]._actions if option in a.option_strings]
    return list(action.choices)


def test_sample_covers_every_kind():
    assert {m.kind for m in SAMPLE} == set(Kind)


@pytest.mark.parametrize("name", list(DESIGN_METHODS))
def test_design_method_is_its_route_name(name):
    for model in SAMPLE:
        d = DESIGN_METHODS[name](model)
        assert d.method == name
        assert DESIGN_METHODS[d.method](model) == d
        assert design_export_dict(model, d)["method"] == name


@pytest.mark.parametrize("name", list(DESIGN_METHODS))
def test_cli_design_reports_the_method_it_was_given(name, capsys):
    for fmt in ("json", "csv"):
        assert cli.run(["design", "--model", "ring:n=8,a=0.3", "--method", name, "--format", fmt]) == 0
        out = capsys.readouterr().out
        reported = json.loads(out)["method"] if fmt == "json" else out.splitlines()[1].split(";")[-1]
        assert reported == name


@pytest.mark.parametrize("source", list(SpectrumSource))
def test_source_is_its_cli_choice(source, capsys):
    model = consensus_spectra.ring(8, 0.3)
    assert SpectrumSource(source.value) is source
    assert cli.run(["spectrum", "--model", "ring:n=8,a=0.3", "--source", source.value]) == 0
    expected = consensus_spectra.spectrum_to_csv(full_spectrum(model, source))
    assert capsys.readouterr().out == expected


def test_parser_choices_are_the_route_names():
    for command in ("design", "sweep", "figure"):
        assert _choices(command, "--method") == list(DESIGN_METHODS)
    assert _choices("spectrum", "--source") == [s.value for s in SpectrumSource]
    assert [s.value for s in SpectrumSource] == ["closed", "dft"]


def test_second_names_are_gone():
    assert not hasattr(consensus_spectra, "DesignMethod")
    assert not hasattr(consensus_spectra.design, "DesignMethod")
    assert not hasattr(cli, "_SOURCES")
    for old in ("ClosedForm", "DftOracle"):
        with pytest.raises(ValueError):
            SpectrumSource(old)
