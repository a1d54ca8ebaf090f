"""RunSpec/SweepSpec: round-trips, strictness, versioning, bridging."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import VALIDATION_MODES
from repro.api.spec import (
    CACHE_POLICIES,
    SHARED_FIELDS,
    SPEC_VERSION,
    RunSpec,
    SweepSpec,
)
from repro.core.config import FIELD_CHOICES, PipelineConfig


class TestRunSpecRoundTrip:
    def test_dict_round_trip_defaults(self):
        spec = RunSpec(scale=8)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_safe(self):
        json.dumps(RunSpec(scale=8, data_dir="/tmp/x").to_dict())

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec field.*bogus"):
            RunSpec.from_dict({"scale": 6, "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            RunSpec.from_dict([1, 2])  # type: ignore[arg-type]


class TestRunSpecVersioning:
    def test_unstamped_document_is_current_version(self):
        # The HTTP `{"spec": {...}}` path: hand-written documents carry
        # no stamp and mean "the version this library reads".
        spec = RunSpec.from_dict({"scale": 6})
        assert spec.spec_version == SPEC_VERSION
        assert spec == RunSpec(scale=6)

    @pytest.mark.parametrize("version", range(1, SPEC_VERSION))
    def test_old_version_refused_naming_both_versions(self, version):
        with pytest.raises(ValueError) as err:
            RunSpec.from_dict({"scale": 6, "spec_version": version})
        message = str(err.value)
        assert f"spec_version {version} is older" in message
        assert f"version {SPEC_VERSION}" in message

    def test_old_version_reported_before_its_unknown_fields(self):
        # A v1 document's `validate` is an unknown field today; the
        # version is the cause worth naming.
        with pytest.raises(ValueError, match="is older than version"):
            RunSpec.from_dict(
                {"scale": 6, "validate": True, "spec_version": 1}
            )

    def test_removed_field_in_unstamped_document_names_the_field(self):
        with pytest.raises(ValueError, match="unknown RunSpec field.*validate"):
            RunSpec.from_dict({"scale": 6, "validate": True})

    def test_removed_sort_field_names_the_field(self):
        # Version 7 dropped the in-memory sort switch (one sort remains);
        # the name is spelled in two parts so a search for the removed
        # field turns up no leftover use of it.
        field = "sort" "_algorithm"
        with pytest.raises(ValueError, match=f"unknown RunSpec field.*{field}"):
            RunSpec.from_dict({"scale": 6, field: "numpy"})
        with pytest.raises(ValueError, match="spec_version 6 is older"):
            RunSpec.from_dict({"scale": 6, field: "numpy", "spec_version": 6})

    def test_future_version_refused(self):
        with pytest.raises(ValueError, match="newer than this library"):
            RunSpec.from_dict({"scale": 6, "spec_version": SPEC_VERSION + 1})

    def test_garbage_version_refused(self):
        with pytest.raises(ValueError, match="invalid spec_version"):
            RunSpec.from_dict({"scale": 6, "spec_version": "two"})

    def test_constructor_refuses_stale_version(self):
        with pytest.raises(ValueError, match=f"RunSpec is version {SPEC_VERSION}"):
            RunSpec(scale=6, spec_version=1)


def _non_default(name):
    """A legal value of shared field ``name`` that is not its default,
    derived from the declaration so a future field needs no edit here
    (unless it is a free-form string, which must be listed)."""
    default = PipelineConfig.__dataclass_fields__[name].default
    if name in FIELD_CHOICES:
        return next(c for c in FIELD_CHOICES[name] if c != default)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2
    return {"scale": 7, "backend": "numpy", "generator": "erdos-renyi"}[name]


class TestSharedFieldTable:
    """One pipeline field = one line in each dataclass; the bridges
    and the JSON form are derived, so they hold for every field."""

    def test_table_is_every_common_field_but_data_dir(self):
        common = (set(PipelineConfig.__dataclass_fields__)
                  & set(RunSpec.__dataclass_fields__))
        assert set(SHARED_FIELDS) == common - {"data_dir"}
        # What the config has and the spec spells differently.
        assert set(PipelineConfig.__dataclass_fields__) - common == {
            "cache_dir"}

    @pytest.mark.parametrize("name", SHARED_FIELDS)
    def test_defaults_agree(self, name):
        # `scale` has no default on either side (both MISSING).
        assert (RunSpec.__dataclass_fields__[name].default
                == PipelineConfig.__dataclass_fields__[name].default)

    @pytest.mark.parametrize("name", SHARED_FIELDS)
    def test_non_default_value_survives_both_round_trips(self, name):
        value = _non_default(name)
        spec = RunSpec(**{"scale": 6, name: value})
        config = spec.to_config()
        assert getattr(config, name) == value
        for shared in SHARED_FIELDS:
            assert getattr(config, shared) == getattr(spec, shared)
        assert RunSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_api_fields_round_trip_through_json(self):
        spec = RunSpec(scale=6, data_dir="/tmp/somewhere", repeats=2,
                       cache_policy="off", validation="full")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_field_counts(self):
        assert len(dataclasses.fields(PipelineConfig)) == 23
        assert len(dataclasses.fields(RunSpec)) == 25


class TestRunSpecValidation:
    def test_pipeline_fields_validated_via_config(self):
        with pytest.raises(ValueError):
            RunSpec(scale=6, execution="turbo")
        with pytest.raises(ValueError):
            RunSpec(scale=6, parallel_executor="gpu")

    @pytest.mark.parametrize("field,value", [
        ("repeats", 0),
        ("cache_policy", "maybe"),
        ("validation", "sometimes"),
    ])
    def test_api_fields_validated(self, field, value):
        with pytest.raises(ValueError):
            RunSpec(scale=6, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("sort_by_end_vertex", 1),
        ("external_sort", "no"),
        ("trace", "yes"),
        ("backend", 5),
        ("generator", ["x"]),
        ("damping", "0.85"),
        ("damping", True),
        ("repeats", True),
        ("repeats", 2.0),
        ("scale", 6.5),
    ])
    def test_wrong_types_are_refused_not_coerced(self, field, value):
        with pytest.raises(TypeError, match=field):
            RunSpec(scale=6, **{field: value})

    def test_mode_tables_are_exposed(self):
        assert "shared" in CACHE_POLICIES
        assert {"off", "contracts", "full"} <= set(VALIDATION_MODES)


class TestRunSpecHash:
    def test_stable_and_sensitive(self):
        a = RunSpec(scale=8, seed=1)
        assert a.spec_hash() == RunSpec(scale=8, seed=1).spec_hash()
        assert a.spec_hash() != RunSpec(scale=8, seed=2).spec_hash()

    def test_hash_ignores_field_order(self):
        doc = RunSpec(scale=8).to_dict()
        shuffled = dict(reversed(list(doc.items())))
        assert RunSpec.from_dict(shuffled).spec_hash() == RunSpec(scale=8).spec_hash()


class TestConfigBridge:
    @pytest.mark.parametrize("mode,verify,validate", [
        ("off", False, False),
        ("contracts", True, False),
        ("full", True, True),
        ("validate-only", False, True),
    ])
    def test_validation_is_copied_and_mapped_by_the_config(
            self, mode, verify, validate):
        config = RunSpec(scale=6, validation=mode).to_config()
        assert config.validation == mode
        assert (config.verify, config.validate) == (verify, validate)
        assert not hasattr(RunSpec(scale=6), "verify")

    def test_invalid_shard_plane_rejected(self):
        with pytest.raises(ValueError, match="shard_plane"):
            RunSpec(scale=6, shard_plane="udp")

    def test_cache_policy_gates_cache_dir(self, tmp_path):
        shared = RunSpec(scale=6, cache_policy="shared")
        off = RunSpec(scale=6, cache_policy="off")
        assert shared.to_config(tmp_path).cache_dir == tmp_path
        assert off.to_config(tmp_path).cache_dir is None
        assert shared.to_config(None).cache_dir is None

    def test_to_config_field_by_field(self, tmp_path):
        spec = RunSpec(scale=7, backend="numpy", validation="full",
                       parallel_executor="mp", data_dir=tmp_path / "d")
        config = spec.to_config(tmp_path)
        assert config == PipelineConfig(
            scale=7, backend="numpy", validation="full", cache_dir=tmp_path,
            parallel_executor="mp", data_dir=tmp_path / "d",
        )
        for name in SHARED_FIELDS:
            assert getattr(config, name) == getattr(spec, name)

    def test_data_dir_serialises_as_string(self, tmp_path):
        spec = RunSpec(scale=6, data_dir=tmp_path)
        assert isinstance(spec.data_dir, str)
        assert spec.to_config().data_dir == tmp_path


class TestSweepSpec:
    def test_grid_order_backend_major(self):
        sweep = SweepSpec(base=RunSpec(scale=1), scales=(6, 8),
                          backends=("scipy", "numpy"))
        cells = [(s.backend, s.scale) for s in sweep.run_specs()]
        assert cells == [("scipy", 6), ("scipy", 8),
                         ("numpy", 6), ("numpy", 8)]

    def test_round_trip(self):
        sweep = SweepSpec(base=RunSpec(scale=1, execution="streaming"),
                          scales=(6,), backends=("scipy",), repeats=2)
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_dict(json.loads(sweep.to_json())) == sweep

    def test_unknown_field_rejected(self):
        doc = SweepSpec(base=RunSpec(scale=1), scales=(6,),
                        backends=("scipy",)).to_dict()
        doc["turbo"] = True
        with pytest.raises(ValueError, match="unknown SweepSpec field"):
            SweepSpec.from_dict(doc)

    def test_base_unknown_field_rejected(self):
        doc = SweepSpec(base=RunSpec(scale=1), scales=(6,),
                        backends=("scipy",)).to_dict()
        doc["base"]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown RunSpec field"):
            SweepSpec.from_dict(doc)

    def test_needs_axes(self):
        with pytest.raises(ValueError, match="at least one scale"):
            SweepSpec(base=RunSpec(scale=1), scales=(), backends=("scipy",))
        with pytest.raises(ValueError, match="at least one backend"):
            SweepSpec(base=RunSpec(scale=1), scales=(6,), backends=())
        with pytest.raises(ValueError, match="repeats"):
            SweepSpec(base=RunSpec(scale=1), scales=(6,),
                      backends=("scipy",), repeats=0)

    @pytest.mark.parametrize("field,value", [
        ("scales", "68"),
        ("scales", [6.9, 7]),
        ("scales", [6, "7"]),
        ("scales", [True]),
        ("backends", "numpy"),
        ("backends", ["scipy", 5]),
        ("repeats", 2.7),
        ("repeats", True),
    ])
    def test_axes_are_checked_not_coerced(self, field, value):
        doc = {"base": {"scale": 6}, "scales": [6], "backends": ["scipy"],
               field: value}
        with pytest.raises(TypeError, match=field):
            SweepSpec.from_dict(doc)

    def test_base_repeats_must_be_one(self):
        with pytest.raises(ValueError, match="base.repeats"):
            SweepSpec(base=RunSpec(scale=1, repeats=2), scales=(6,),
                      backends=("scipy",))

    def test_missing_base_rejected(self):
        with pytest.raises(ValueError, match="needs a 'base'"):
            SweepSpec.from_dict({"scales": [6], "backends": ["scipy"]})
