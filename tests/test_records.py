"""Tests for the shape of the library's result records.

The results each stage hands on are immutable named tuples: a
dataclass build costs a fresh process about a millisecond per class,
a named tuple about a tenth of that. Only the inputs that validate
themselves on construction, and the run configuration whose field
metadata drives its schema, stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import wgqed

DATACLASSES = {"wgqed.modes.WaveguideSpec", "wgqed.modes.ModeIndex",
               "wgqed.quantize.QuantizationBox", "wgqed.quantize.Atom",
               "wgqed.config.RunConfig"}

# every record with its field names, in their order
RECORDS = {
    "detection.PoleResult": (
        "beta_r", "beta_i", "radicand", "shifted_frequency",
        "decay_rate", "model"),
    "detection.EmitterSolution": ("decay", "shift", "pole"),
    "detection.CorrelationMetadata": (
        "pole", "source_position", "front_speed_factor",
        "consistency_max_rel", "alternative_prefactor_ratio"),
    "detection.CorrelationGrid": (
        "x_values", "z_values", "t_values", "values", "inside_cone",
        "metadata"),
    "detection.RateFit": (
        "temporal_rate", "spatial_rate", "rate_ratio", "cone_ratio",
        "max_log_residual"),
    "detection.OmegaDReport": ("closed_form", "root_found", "discrepancy"),
    "emission.ChannelRate": (
        "mode", "direction", "weight", "coupling", "rate"),
    "emission.DecayResult": ("total", "channels", "oscillatory"),
    "emission.ShiftContribution": ("mode", "branch", "window", "value"),
    "emission.ShiftResult": ("value", "window", "contributions"),
    "emission.MarkovParameters": (
        "decay_total", "level_shift", "transition_frequency"),
    "emission.ContinuumCells": (
        "modes", "row", "direction", "frequency", "coupling", "weight",
        "width"),
    "modes.ModeDispersion": (
        "transverse_wavenumber", "medium_wavenumber", "branch",
        "axial_wavenumber", "attenuation"),
    "modes.ModeField": ("electric", "magnetic"),
    "validate.CheckResult": (
        "name", "passed", "measured", "tolerance", "detail"),
}


def record_class(name):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"wgqed.{module}"), cls)


def test_dataclasses_are_the_validated_inputs_and_the_config():
    found = set()
    for info in pkgutil.iter_modules(wgqed.__path__, "wgqed."):
        if info.name == "wgqed.__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(cls):
                found.add(f"{module.__name__}.{cls.__name__}")
    assert found == DATACLASSES


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_keeps_its_fields_and_is_immutable(name):
    cls = record_class(name)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == RECORDS[name]
    record = cls(*range(len(cls._fields)))
    assert [getattr(record, f) for f in cls._fields] == list(
        range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_check_result_keeps_its_default_detail():
    cls = record_class("validate.CheckResult")
    assert cls("name", True, 0.0, 1.0).detail == ""
