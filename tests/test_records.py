"""The record contract: every result and graph record is an immutable
``typing.NamedTuple`` (``AnalysisConfig`` one that checks its values when
built), and ``io.sanitize`` turns each into a dict keyed by its field
names, renamed where ``io.REPORT_RENAMES`` says so."""

import math
from pathlib import Path

import numpy as np
import pytest

from spatialnet import (cli, communities, empirical, fitting, graph, measures, null_models,
                        small_world)
from spatialnet.cli import AnalysisConfig, run
from spatialnet.graph import EdgeRecord, NodeRecord, build_graph
from spatialnet.io import REPORT_RENAMES, sanitize

DATA = Path(__file__).parent / "data"
MODULES = (cli, communities, empirical, fitting, graph, measures, null_models, small_world)
RECORDS = sorted({value for module in MODULES for name, value in vars(module).items()
                  if isinstance(value, type) and issubclass(value, tuple)
                  and hasattr(value, "_fields") and not name.startswith("_")},
                 key=lambda cls: cls.__name__)


def _keys(cls) -> list[str]:
    return [REPORT_RENAMES.get(name, name) for name in cls._fields]


def test_every_record_module_defines_its_records():
    assert [cls.__name__ for cls in RECORDS] == [
        "AnalysisConfig", "ClusteringResult", "Coefficient", "CommunityPartition",
        "DegreeStrength", "EdgeRecord", "EnsembleStats", "FitResult", "GlobalMeasures",
        "MeasureReport", "NeighborAverages", "NeighborStats", "NodeMeasures", "NodeRecord",
        "NullModelEnsemble", "OmegaResult", "PathStats", "PathTable", "PearsonMatrix",
        "RegressionModel", "ReplicateStats", "ReportBundle", "SelectionReport", "SpatialGraph",
        "TimeMeasures", "Variable", "VariableScore", "VariableTable",
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_refuses_attribute_assignment(cls):
    record = cls._make(range(len(cls._fields)))  # no field is checked on this path
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "changed")
    with pytest.raises(AttributeError):
        record.extra = "added"
    assert getattr(record, cls._fields[0]) == 0


def test_edge_records_without_times_share_no_mutable_mapping():
    first, second = EdgeRecord("a", "b", 1.0), EdgeRecord("b", "c", 2.0)
    with pytest.raises(TypeError):
        first.time_min["2010"] = 5.0
    assert first.time_min == second.time_min == {}
    assert EdgeRecord("a", "b", 1.0) == EdgeRecord("a", "b", 1.0, {})


def test_graph_keeps_its_own_read_only_copy_of_edge_times():
    times = {"2010": 5.0}
    g = build_graph([NodeRecord("a"), NodeRecord("b")], [EdgeRecord("a", "b", 1.0, times)])
    times["2010"] = -3.0
    assert g.costs("time", "2010") == (((1, 5.0),), ((0, 5.0),))
    with pytest.raises(TypeError):
        g.edges[0].time_min["2010"] = -3.0
    assert g.edges[0].time_min == {"2010": 5.0}


def test_graph_index_is_read_only_for_the_graph_and_its_replicates():
    # the index that every null-model replicate shares with its input
    g = build_graph([NodeRecord(x) for x in "abc"],
                    [EdgeRecord("a", "b", 1.0), EdgeRecord("b", "c", 1.0)])
    replicate = null_models.randomize(g, seed=1, replicates=1).replicates[0]
    assert replicate.index is g.index
    with pytest.raises(TypeError):
        g.index["a"] = 1
    with pytest.raises(TypeError):
        del g.index["a"]
    assert dict(g.index) == {"a": 0, "b": 1, "c": 2}
    assert (g.degree("a"), replicate.degree("a")) == (1, 1)


def test_records_unpack_and_compare_as_tuples():
    node = NodeRecord("a", "A", 38.0, 23.0)
    node_id, label, lat, lon = node
    assert (node_id, label, lat, lon) == ("a", "A", 38.0, 23.0)
    assert node == ("a", "A", 38.0, 23.0)
    assert node._asdict() == {"id": "a", "label": "A", "lat": 38.0, "lon": 23.0}
    g = build_graph([node, NodeRecord("b")], [EdgeRecord("a", "b", 1.0)])
    assert g.index == {"a": 0, "b": 1}  # the field, not tuple.index
    assert (g.n, g.m, g.degree("b"), g.node_ids) == (2, 1, 1, ("a", "b"))


def test_analysis_config_checks_in_order_and_echoes_its_fields(tmp_path):
    with pytest.raises(cli.ConfigError, match="seed must be >= 0"):
        AnalysisConfig(DATA / "nodes.csv", DATA / "edges.csv", seed=-1, replicates=0)
    with pytest.raises(cli.ConfigError, match="replicates must be >= 1"):
        AnalysisConfig(DATA / "nodes.csv", DATA / "edges.csv", replicates=0, alpha=2.0)
    config = AnalysisConfig(DATA / "nodes.csv", DATA / "edges.csv", out_dir=tmp_path)
    echoed = config.echo()
    assert list(echoed) == [name for name in AnalysisConfig._fields if name != "out_dir"]
    assert echoed["nodes"]["name"] == "nodes.csv" and echoed["variables"] is None


def test_every_rename_names_a_record_field():
    fields = {name for cls in RECORDS for name in cls._fields}
    assert set(REPORT_RENAMES) <= fields


def test_sanitize_keys_every_report_by_its_renamed_fields(tmp_path):
    config = AnalysisConfig(DATA / "nodes.csv", DATA / "edges.csv", DATA / "variables.csv",
                            epoch="2010", seed=1, swaps_per_edge=1, replicates=2,
                            out_dir=tmp_path)
    reports = run("all", config).reports
    measures_report = reports["measures"]
    assert set(measures_report) == {"provenance", *_keys(measures.MeasureReport)}
    assert sorted(measures_report["global"]) == sorted(_keys(measures.GlobalMeasures))
    assert "average_strength_km" in measures_report["global"]
    assert list(measures_report["time"]) == _keys(measures.TimeMeasures)
    assert list(measures_report["nearest_neighbor"]) == _keys(measures.NeighborAverages)
    for row in measures_report["per_node"].values():
        assert list(row) == _keys(measures.NodeMeasures)

    partition = reports["communities"]
    assert set(partition) == {"provenance", *_keys(communities.CommunityPartition)}

    regression = reports["regression"]
    assert list(regression["selection"]) == _keys(empirical.SelectionReport)
    for score in regression["selection"]["scores"]:
        assert list(score) == ["name", "class", "within_sum_r2", "within_rank",
                               "global_sum_r2", "global_rank", "is_response"]
    for model in regression["models"]:
        assert list(model) == _keys(empirical.RegressionModel)
        for row in model["coefficients"].values():
            assert list(row) == _keys(empirical.Coefficient)

    for fit in [*reports["fits"]["distribution_fits"].values(),
                *reports["fits"]["scaling_fits"].values()]:
        assert list(fit) == _keys(fitting.FitResult)

    omega = reports["omega"]
    inputs = ["l_emp", "c_emp", "l_rand", "c_latt"]
    assert set(omega) == {"provenance", "inputs", "ensembles",
                          *(set(_keys(small_world.OmegaResult)) - set(inputs))}
    assert list(omega["inputs"]) == inputs
    for summary in omega["ensembles"].values():
        assert set(summary) == (set(null_models.NullModelEnsemble._fields) - {"stats"}
                                | set(null_models.EnsembleStats._fields))
        assert list(summary["per_replicate"][0]) == _keys(null_models.ReplicateStats)


def test_sanitize_matches_builtin_types_exactly_and_subclasses_by_isinstance():
    assert sanitize({"a": [1, True, None, "x", (2.5, math.inf)]}) == {
        "a": [1, True, None, "x", [2.5, None]]}
    assert sanitize(np.float64("nan")) is None
    assert sanitize(np.float64(1.5)) == 1.5
    assert sanitize(EdgeRecord("a", "b", 1.0).time_min) == {}
    assert sanitize(measures.PathStats(-math.inf, 2.0)) == {"average": None, "diameter": 2.0}
