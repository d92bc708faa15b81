"""XInsightModel persistence: round-trip properties and the pinned schema.

The offline artifact must survive ``save`` → ``load`` with nothing lost —
identical edge list, sepsets, aliases, and bin edges — and the on-disk JSON
schema is pinned by a golden file so format drift fails loudly instead of
silently corrupting deployed models.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SCHEMA_VERSION, XInsightModel, fit_model
from repro.data import Table
from repro.data.discretize import Bin, BinSpec
from repro.datasets import generate_cityinfo, generate_lungcancer
from repro.discovery import SepsetMap
from repro.errors import DiscoveryError, GraphError, ModelError
from repro.graph import Endpoint, MixedGraph
from repro.graph.pag import pag_from_dict, pag_to_dict

GOLDEN = Path(__file__).parent / "golden" / "model_schema_v1.json"


@pytest.fixture(scope="module")
def fitted_model():
    return fit_model(generate_lungcancer(n_rows=3000, seed=0), measure_bins=3)


def edge_list(graph: MixedGraph):
    return sorted(
        (repr(u), repr(v), mu.value, mv.value) for u, v, mu, mv in graph.edges()
    )


class TestRoundTrip:
    def test_save_load_preserves_every_field(self, fitted_model, tmp_path):
        path = fitted_model.save(tmp_path / "model.json")
        loaded = XInsightModel.load(path)
        assert loaded == fitted_model
        assert edge_list(loaded.pag) == edge_list(fitted_model.pag)
        assert loaded.sepsets == fitted_model.sepsets
        assert dict(loaded.aliases) == dict(fitted_model.aliases)
        assert loaded.fd_graph == fitted_model.fd_graph
        assert loaded.columns == fitted_model.columns
        for measure, spec in fitted_model.bin_specs.items():
            assert loaded.bin_specs[measure].edges == spec.edges
            assert loaded.bin_specs[measure] == spec
        assert loaded.alpha == fitted_model.alpha
        assert loaded.max_depth == fitted_model.max_depth
        assert loaded.max_dsep_size == fitted_model.max_dsep_size
        assert loaded.measure_bins == fitted_model.measure_bins

    def test_save_load_save_is_byte_stable(self, fitted_model, tmp_path):
        first = fitted_model.save(tmp_path / "a.json")
        second = XInsightModel.load(first).save(tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_on_fd_heavy_dataset(self, tmp_path):
        model = fit_model(generate_cityinfo(n_rows=400, seed=0))
        loaded = XInsightModel.load(model.save(tmp_path / "city.json"))
        assert loaded == model
        assert loaded.fd_graph.dependencies == model.fd_graph.dependencies
        assert dict(loaded.fd_graph.redundant) == dict(model.fd_graph.redundant)

    def test_loaded_model_transform_matches_fitted_labels(
        self, fitted_model, tmp_path
    ):
        table = generate_lungcancer(n_rows=3000, seed=0)
        loaded = XInsightModel.load(fitted_model.save(tmp_path / "m.json"))
        a = fitted_model.transform(table)
        b = loaded.transform(table)
        for measure, bin_col in fitted_model.aliases.items():
            assert a.values(bin_col) == b.values(bin_col)


# Random mixed graphs over string nodes with arbitrary endpoint marks.
marks_st = st.sampled_from([Endpoint.TAIL, Endpoint.ARROW, Endpoint.CIRCLE])
nodes_st = st.lists(
    st.text(alphabet="abcdeXYZ_", min_size=1, max_size=6),
    min_size=2,
    max_size=6,
    unique=True,
)


@st.composite
def graphs_st(draw):
    nodes = draw(nodes_st)
    graph = MixedGraph(nodes)
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    for u, v in pairs:
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(marks_st), draw(marks_st))
    return graph


class TestComponentRoundTrips:
    @given(graph=graphs_st())
    @settings(deadline=None, max_examples=50)
    def test_mixed_graph_round_trip(self, graph):
        restored = MixedGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
        assert restored == graph
        assert restored.nodes == graph.nodes

    @given(
        records=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=4),
                st.text(min_size=1, max_size=4),
                st.sets(st.text(min_size=1, max_size=4), max_size=3),
            ),
            max_size=12,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_sepset_map_round_trip(self, records):
        sepsets = SepsetMap()
        for x, y, z in records:
            if x != y:
                sepsets.record(x, y, z)
        restored = SepsetMap.from_dict(json.loads(json.dumps(sepsets.to_dict())))
        assert restored == sepsets

    @given(
        lows=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        method=st.sampled_from(["width", "frequency", "singleton"]),
    )
    @settings(deadline=None, max_examples=50)
    def test_bin_spec_round_trip(self, lows, method):
        edges = sorted(lows)
        if method == "singleton":
            bins = tuple(Bin(e, e) for e in edges)
        else:
            bins = tuple(Bin(lo, hi) for lo, hi in zip(edges, edges[1:]))
        spec = BinSpec("m", "m_bin", method, bins)
        restored = BinSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.edges == spec.edges


class TestServingNeverMintsCategories:
    """Stored bins are a closed category set: fresh data cannot introduce
    labels the graph was never learned on — range bins clamp, singleton
    bins snap to the nearest fitted value."""

    def make_model(self):
        flags = [0.0, 1.0] * 20
        table = Table.from_columns(
            {"D": ["a", "b"] * 20, "E": ["u", "u", "v", "v"] * 10, "Flag": flags}
        )
        return fit_model(table, measure_bins=5)  # 2 distinct → singleton

    def test_singleton_spec_snaps_unseen_values(self):
        model = self.make_model()
        assert model.bin_specs["Flag"].method == "singleton"
        fresh = Table.from_columns(
            {"D": ["a", "b", "a"], "E": ["u", "v", "u"], "Flag": [0.0, 1.0, 2.0]}
        )
        served = model.transform(fresh)
        assert set(served.values("Flag_bin")) <= {"=0", "=1"}

    def test_singleton_labels_unchanged_for_fitted_values(self):
        model = self.make_model()
        spec = model.bin_specs["Flag"]
        import numpy as np

        assert spec.labels(np.array([0.0, 1.0])) == ["=0", "=1"]


def _golden_payload() -> dict:
    """The golden payload minus the save-time fingerprint, so mutation
    tests exercise parse validation rather than tamper detection."""
    payload = json.loads(GOLDEN.read_text())
    payload.pop("fingerprint", None)
    return payload


class TestBinSpecPayloadValidation:
    def test_unknown_method_is_a_model_error(self):
        payload = _golden_payload()
        payload["bin_specs"]["Pay"]["method"] = "freq"
        with pytest.raises(ModelError, match="malformed"):
            XInsightModel.from_dict(payload)

    def test_empty_bins_is_a_model_error(self):
        payload = _golden_payload()
        payload["bin_specs"]["Pay"]["bins"] = []
        with pytest.raises(ModelError, match="malformed"):
            XInsightModel.from_dict(payload)

    def test_save_into_missing_directory_is_a_model_error(
        self, fitted_model, tmp_path
    ):
        with pytest.raises(ModelError, match="cannot write"):
            fitted_model.save(tmp_path / "no_such_dir" / "model.json")


class TestFitKnobValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"alpha": 2.0},
            {"alpha": 0.0},
            {"alpha": math.nan},
            {"max_depth": -3},
            {"max_dsep_size": -1},
        ],
    )
    def test_bad_fit_knob_is_a_typed_error_before_any_work(
        self, knobs, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the fit started before its knobs were checked")

        monkeypatch.setattr("repro.core.model.fit_bins", no_work)
        with pytest.raises(DiscoveryError, match=next(iter(knobs))):
            fit_model(generate_lungcancer(n_rows=200, seed=0), **knobs)


class TestGoldenSchema:
    """Format drift must fail loudly: the golden file pins schema v1."""

    def test_schema_version_is_pinned(self):
        assert SCHEMA_VERSION == 1, (
            "schema version changed: regenerate tests/golden/ and add a "
            "migration path for saved models"
        )

    def test_golden_file_round_trips_byte_identically(self, tmp_path):
        model = XInsightModel.load(GOLDEN)
        resaved = model.save(tmp_path / "resaved.json")
        assert resaved.read_bytes() == GOLDEN.read_bytes(), (
            "serialization format drifted from the committed v1 golden file"
        )

    def test_golden_top_level_keys_are_stable(self):
        payload = json.loads(GOLDEN.read_text())
        assert set(payload) == {
            "format",
            "schema_version",
            "fingerprint",
            "pag",
            "sepsets",
            "fd_graph",
            "aliases",
            "bin_specs",
            "columns",
            "fit",
        }
        assert payload["format"] == "xinsight-model"
        assert payload["schema_version"] == 1

    def test_future_schema_version_is_rejected(self):
        payload = _golden_payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ModelError, match="schema version"):
            XInsightModel.from_dict(payload)

    def test_foreign_payload_is_rejected(self, tmp_path):
        path = tmp_path / "not_a_model.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ModelError, match="artifact"):
            XInsightModel.load(path)

    def test_missing_file_is_a_model_error(self, tmp_path):
        with pytest.raises(ModelError, match="no model file"):
            XInsightModel.load(tmp_path / "absent.json")

    def test_invalid_json_is_a_model_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            XInsightModel.load(path)

    def test_truncated_payload_is_a_model_error(self):
        payload = {"format": "xinsight-model", "schema_version": SCHEMA_VERSION}
        with pytest.raises(ModelError, match="malformed"):
            XInsightModel.from_dict(payload)

    def test_wrong_typed_section_is_a_model_error(self):
        payload = _golden_payload()
        payload["bin_specs"] = "not-a-mapping"
        with pytest.raises(ModelError, match="malformed"):
            XInsightModel.from_dict(payload)


class TestFingerprint:
    """The content hash: stable across save/load, and tamper-evident."""

    def test_fingerprint_survives_a_round_trip(self, fitted_model, tmp_path):
        path = fitted_model.save(tmp_path / "model.json")
        reloaded = XInsightModel.load(path)
        assert reloaded.fingerprint() == fitted_model.fingerprint()
        assert json.loads(path.read_text())["fingerprint"] == (
            fitted_model.fingerprint()
        )

    def test_fingerprint_is_cached_and_deterministic(self, fitted_model):
        assert fitted_model.fingerprint() == fitted_model.fingerprint()
        assert len(fitted_model.fingerprint()) == 64  # sha256 hex

    def test_fingerprint_tracks_content_not_identity(self, fitted_model):
        golden = XInsightModel.load(GOLDEN)
        assert golden.fingerprint() != fitted_model.fingerprint() or (
            golden.to_dict() == fitted_model.to_dict()
        )

    def test_tampered_artifact_is_rejected_on_load(self, fitted_model, tmp_path):
        path = fitted_model.save(tmp_path / "model.json")
        payload = json.loads(path.read_text())
        payload["fit"]["alpha"] = 0.123456
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match="fingerprint mismatch"):
            XInsightModel.load(path)

    def test_pre_fingerprint_artifact_still_loads(self):
        # Artifacts saved before the fingerprint key existed are schema v1
        # too; the key is optional save metadata, not schema.
        model = XInsightModel.from_dict(_golden_payload())
        golden = XInsightModel.load(GOLDEN)
        assert model.fingerprint() == golden.fingerprint()


class TestPagSerializationValidation:
    def test_pag_dict_round_trip(self, fitted_model):
        assert pag_from_dict(pag_to_dict(fitted_model.pag)) == fitted_model.pag

    def test_invalid_pag_edge_rejected_on_load(self):
        payload = {"nodes": ["a", "b"], "edges": [["a", "b", "?", ">"]]}
        with pytest.raises((GraphError, ValueError)):
            pag_from_dict(payload)
