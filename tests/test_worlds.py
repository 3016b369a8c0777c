"""The worlds harness: grids, sweep schema, and the out-of-core driver.

Parse-time validation (every malformed grid is a clear ``ValueError``
before any cell runs), cell-product compatibility rules, spec
round-trips, and a mini end-to-end sweep through
:func:`repro.worlds.run_sweep` — including resume semantics and the
order-independence of per-cell results.

The opt-in ``-m statistical`` tier at the bottom runs a real
multi-family sweep and asserts the (1±ε) guarantee the same way
``test_statistical_guarantees.py`` does for single streams.
"""

import json

import pytest

from repro.errors import ReproError, WorldsError
from repro.exact.subgraphs import count_subgraphs
from repro.patterns import pattern as zoo
from repro.streams.cache import parse_byte_size
from repro.streams.datasets import DiskEdgeStream
from repro.worlds import (
    ESTIMATORS,
    FAMILIES,
    FamilySpec,
    ROW_KEYS,
    ScenarioSpec,
    WorldGrid,
    materialize_workload,
    run_sweep,
    validate_sweep_document,
)
from repro.worlds.sweep import _grid_seed


class TestFamilySpec:
    def test_defaults_fill_in(self):
        spec = FamilySpec.create("gnp")
        assert spec.param_dict() == {"n": 64, "p": 0.15}
        assert spec.label == "gnp(n=64,p=0.15)"

    def test_unknown_family_is_value_error(self):
        with pytest.raises(WorldsError, match="unknown generator family"):
            FamilySpec.create("smallworld")
        assert issubclass(WorldsError, ValueError)
        assert issubclass(WorldsError, ReproError)

    def test_unknown_parameter(self):
        with pytest.raises(WorldsError, match="unknown gnp parameter"):
            FamilySpec.create("gnp", density=0.5)

    def test_round_trip_through_dict(self):
        for name in FAMILIES:
            spec = FamilySpec.create(name)
            assert FamilySpec.from_spec(spec.to_dict()) == spec
            assert FamilySpec.from_spec(name) == spec

    def test_kronecker_validation(self):
        with pytest.raises(WorldsError, match="initiator"):
            FamilySpec.create("kronecker", initiator=[0.5, 0.5, 0.5])
        with pytest.raises(WorldsError, match="initiator weight"):
            FamilySpec.create("kronecker", initiator=[0.5, 0.5, 0.5, -0.1])
        with pytest.raises(WorldsError, match="cannot place"):
            FamilySpec.create("kronecker", power=2, edges=100)
        with pytest.raises(WorldsError, match="power"):
            FamilySpec.create("kronecker", power=0)

    def test_config_exponent_must_exceed_one(self):
        # The headline parse-time check: degree exponent <= 1 is not a
        # power law and must fail before any degree is sampled.
        with pytest.raises(WorldsError, match="degree exponent must be > 1"):
            FamilySpec.create("config", exponent=1.0)
        with pytest.raises(WorldsError, match="degree exponent must be > 1"):
            FamilySpec.create("config", exponent=0.8)
        with pytest.raises(WorldsError, match="max_degree"):
            FamilySpec.create("config", n=10, max_degree=10)


class TestScenarioSpec:
    def test_negative_deletion_rate(self):
        with pytest.raises(WorldsError, match="deletion rate"):
            ScenarioSpec.create("deletion_heavy", deletion_rate=-0.5)
        with pytest.raises(WorldsError, match="deletion rate"):
            ScenarioSpec.create("deletion_heavy", deletion_rate=1.5)

    def test_window_fraction_zero_rejected(self):
        with pytest.raises(WorldsError, match="window fraction"):
            ScenarioSpec.create("sliding_window", window_fraction=0.0)

    def test_unknown_kind_and_parameter(self):
        with pytest.raises(WorldsError, match="unknown scenario"):
            ScenarioSpec.create("burst")
        with pytest.raises(WorldsError, match="parameter"):
            ScenarioSpec.create("insertion", rate=1)

    def test_needs_deletions_flags(self):
        assert not ScenarioSpec.create("insertion").needs_deletions
        assert not ScenarioSpec.create("adversarial").needs_deletions
        assert ScenarioSpec.create("deletion_heavy").needs_deletions
        assert ScenarioSpec.create("sliding_window").needs_deletions

    def test_round_trip_through_dict(self):
        spec = ScenarioSpec.create("deletion_heavy", deletion_rate=0.25)
        assert ScenarioSpec.from_spec(spec.to_dict()) == spec


class TestWorldGridValidation:
    def test_empty_grid_axes(self):
        with pytest.raises(WorldsError, match="empty grid: no generator"):
            WorldGrid(families=[])
        with pytest.raises(WorldsError, match="empty grid: no scenarios"):
            WorldGrid(families=["gnp"], scenarios=[])
        with pytest.raises(WorldsError, match="empty grid: no space budgets"):
            WorldGrid(families=["gnp"], budgets=[])

    def test_unknown_estimator_pattern_backend(self):
        with pytest.raises(WorldsError, match="unknown estimator"):
            WorldGrid(families=["gnp"], estimators=["three-pass"])
        with pytest.raises(WorldsError):
            WorldGrid(families=["gnp"], patterns=["Q7"])
        with pytest.raises(WorldsError, match="unknown backend"):
            WorldGrid(families=["gnp"], backend="gpu")
        with pytest.raises(WorldsError, match="cache policy"):
            WorldGrid(families=["gnp"], cache="mru:1M")
        with pytest.raises(WorldsError, match="epsilon"):
            WorldGrid(families=["gnp"], epsilon=0.0)
        with pytest.raises(WorldsError, match="space budget"):
            WorldGrid(families=["gnp"], budgets=[0])

    def test_deletion_scenarios_only_run_turnstile(self):
        grid = WorldGrid(
            families=["gnp"],
            scenarios=["insertion", "deletion_heavy"],
            estimators=list(ESTIMATORS),
            patterns=["S3"],
            budgets=[10],
        )
        for cell in grid.cells():
            if cell.scenario.needs_deletions:
                assert cell.estimator == "turnstile", cell.key

    def test_two_pass_needs_star_decomposable_pattern(self):
        grid = WorldGrid(
            families=["gnp"], estimators=["two-pass"],
            patterns=["triangle", "S3"], budgets=[10],
        )
        assert {cell.pattern for cell in grid.cells()} == {"S3"}

    def test_all_incompatible_product_fails_at_parse_time(self):
        with pytest.raises(WorldsError, match="no runnable cells"):
            WorldGrid(
                families=["gnp"], scenarios=["deletion_heavy"],
                estimators=["insertion", "two-pass"], budgets=[10],
            )

    def test_cell_keys_are_unique_and_stable(self):
        grid = WorldGrid(families=["gnp", "ws"], budgets=[10, 20])
        keys = [cell.key for cell in grid.cells()]
        assert len(keys) == len(set(keys))
        assert "gnp(n=64,p=0.15)|insertion|insertion|triangle|t10" in keys

    def test_dict_round_trip_preserves_cells(self):
        grid = WorldGrid(
            families=[{"family": "kronecker", "power": 5, "edges": 60}],
            scenarios=[{"kind": "sliding_window", "window_fraction": 0.3}],
            estimators=["turnstile"], budgets=[25], copies=2, epsilon=0.4,
        )
        clone = WorldGrid.from_dict(grid.to_dict())
        assert [c.key for c in clone.cells()] == [c.key for c in grid.cells()]
        assert clone.to_dict() == grid.to_dict()

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(WorldsError, match="unknown grid key"):
            WorldGrid.from_dict({"families": ["gnp"], "parallel": True})
        with pytest.raises(WorldsError, match="'families'"):
            WorldGrid.from_dict({"budgets": [10]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"families": ["gnp"], "budgets": [5]}),
                        encoding="utf-8")
        grid = WorldGrid.from_file(path)
        assert grid.budgets == [5]
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(WorldsError, match="not valid JSON"):
            WorldGrid.from_file(bad)

    def test_grid_file_naming_a_removed_backend_is_refused(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"families": ["gnp"], "backend": "thread"}),
                        encoding="utf-8")
        with pytest.raises(WorldsError, match="unknown backend 'thread'; "
                                              "known: serial, process"):
            WorldGrid.from_file(path)


def _mini_grid(**overrides):
    kwargs = dict(
        families=[{"family": "gnp", "n": 24, "p": 0.2}],
        scenarios=["insertion", {"kind": "deletion_heavy", "deletion_rate": 0.5}],
        estimators=["insertion", "turnstile"],
        patterns=["triangle"],
        budgets=[40],
        copies=2,
        epsilon=0.9,
        seed=2022,
        cache="lru:64K",
    )
    kwargs.update(overrides)
    return WorldGrid(**kwargs)


class TestSweep:
    def test_mini_sweep_validates_and_scores_against_disk_truth(self, tmp_path):
        grid = _mini_grid()
        out = tmp_path / "sweep.json"
        document = run_sweep(grid, out_path=out)
        validate_sweep_document(document)
        rows = document["rows"]
        # insertion x {insertion, turnstile} + deletion_heavy x turnstile.
        assert [row["estimator"] for row in rows] == [
            "insertion", "turnstile", "turnstile",
        ]
        # Scenarios share the family's base graph, so truth and m agree
        # across the whole column.
        assert len({row["truth"] for row in rows}) == 1
        assert len({row["m"] for row in rows}) == 1
        assert all(row["peak_resident_bytes"] > 0 for row in rows)

        # The recorded truth is the exact count of the materialized
        # workload's final graph, re-derived independently here.
        family, scenario = grid.families[0], grid.scenarios[0]
        path = tmp_path / "check.reb"
        materialize_workload(
            family, scenario, _grid_seed(grid, f"family:{family.label}"), path,
            scenario_seed=_grid_seed(
                grid, f"scenario:{family.label}|{scenario.label}"
            ),
        )
        truth = count_subgraphs(
            DiskEdgeStream(path, cache="none").final_graph(), zoo.triangle()
        )
        assert rows[0]["truth"] == truth > 0

        # The archived file is the same (valid) document.
        archived = json.loads(out.read_text(encoding="utf-8"))
        validate_sweep_document(archived)
        assert archived["rows"] == rows

    def test_gnp_and_kronecker_cells_meet_epsilon_within_cache_budget(self, tmp_path):
        # Generous seeded budgets: an eps-violation here is estimator
        # drift, not noise.
        budget = "256K"
        grid = WorldGrid(
            families=[
                {"family": "gnp", "n": 40, "p": 0.25},
                {"family": "kronecker", "power": 6, "edges": 320},
            ],
            scenarios=["insertion"],
            estimators=["insertion", "turnstile"],
            patterns=["triangle"],
            budgets=[320],
            copies=5,
            epsilon=0.7,
            seed=20220704,
            cache=f"lru:{budget}",
        )
        out = tmp_path / "sweep.json"
        run_sweep(grid, out_path=out)
        rows = validate_sweep_document(
            json.loads(out.read_text(encoding="utf-8")))["rows"]
        assert len(rows) == len(grid.cells())
        for row in rows:
            assert not row["eps_violation"], row
            assert 0 < row["peak_resident_bytes"] <= parse_byte_size(budget), row

    def test_resume_reuses_rows_bit_for_bit(self, tmp_path):
        grid = _mini_grid()
        out = tmp_path / "sweep.json"
        first = run_sweep(grid, out_path=out)
        events = []
        second = run_sweep(grid, out_path=out, resume=True,
                           progress=events.append)
        assert second["rows"] == first["rows"]
        assert all("reused" in line for line in events if "] " in line)

    def test_resume_rejects_a_different_grid(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_sweep(_mini_grid(estimators=["insertion"],
                             scenarios=["insertion"]), out_path=out)
        with pytest.raises(WorldsError, match="different grid spec"):
            run_sweep(_mini_grid(estimators=["insertion"],
                                 scenarios=["insertion"], seed=7),
                      out_path=out, resume=True)
        with pytest.raises(WorldsError, match="output path"):
            run_sweep(_mini_grid(), resume=True)

    def test_cells_filter_must_match_something(self):
        with pytest.raises(WorldsError, match="match none"):
            run_sweep(_mini_grid(), cells=["no-such-cell"])

    def test_cell_results_are_independent_of_filtering(self, tmp_path):
        # Per-cell randomness hangs off the cell key, so running a cell
        # alone reproduces its row from the full sweep (timing aside).
        grid = _mini_grid(estimators=["insertion"], scenarios=["insertion"],
                          budgets=[40, 80])
        full = run_sweep(grid)
        alone = run_sweep(grid, cells=["t80"])
        assert len(alone["rows"]) == 1

        def stable(row):
            return {key: value for key, value in row.items()
                    if key not in ("seconds", "updates_per_s")}

        by_key = {row["cell"]: row for row in full["rows"]}
        row = alone["rows"][0]
        assert stable(row) == stable(by_key[row["cell"]])


def _valid_row():
    return {
        "cell": "gnp(n=24,p=0.2)|insertion|insertion|triangle|t40",
        "family": "gnp(n=24,p=0.2)",
        "scenario": "insertion",
        "estimator": "insertion",
        "pattern": "triangle",
        "space_budget": 40,
        "copies": 2,
        "n": 24,
        "length": 55,
        "m": 55,
        "truth": 19,
        "estimate": 20.5,
        "rel_err": 0.0789,
        "epsilon": 0.9,
        "eps_violation": False,
        "copy_violation_rate": 0.0,
        "peak_resident_bytes": 1320,
        "updates_per_s": 1234.5,
        "seconds": 0.04,
        "passes": 3,
    }


def _valid_document():
    return {
        "benchmark": "worlds_sweep",
        "git_sha": "abc1234",
        "created_unix": 1754600000,
        "params": {"families": [{"family": "gnp"}]},
        "rows": [_valid_row()],
    }


class TestSweepSchema:
    def test_valid_document_passes(self):
        document = _valid_document()
        assert validate_sweep_document(document) is document

    @pytest.mark.parametrize("key", ROW_KEYS)
    def test_every_missing_column_is_reported(self, key):
        document = _valid_document()
        del document["rows"][0][key]
        with pytest.raises(WorldsError, match=key):
            validate_sweep_document(document)

    def test_eps_violation_must_agree_with_rel_err(self):
        document = _valid_document()
        document["rows"][0]["eps_violation"] = True
        with pytest.raises(WorldsError, match="disagrees"):
            validate_sweep_document(document)

    def test_negative_and_nonfinite_values_rejected(self):
        for key, value in (
            ("peak_resident_bytes", -1),
            ("rel_err", float("nan")),
            ("updates_per_s", 0.0),
            ("passes", 0),
            ("epsilon", 1.5),
        ):
            document = _valid_document()
            document["rows"][0][key] = value
            with pytest.raises(WorldsError, match=key.split("_")[0]):
                validate_sweep_document(document)

    def test_top_level_contract(self):
        with pytest.raises(WorldsError, match="expected an object"):
            validate_sweep_document([])
        document = _valid_document()
        document["created_unix"] = 17.5
        with pytest.raises(WorldsError, match="created_unix"):
            validate_sweep_document(document)
        document = _valid_document()
        document["rows"] = {"0": _valid_row()}
        with pytest.raises(WorldsError, match="rows"):
            validate_sweep_document(document)


@pytest.mark.statistical
class TestWorldsStatisticalSweep:
    """The sweep-level (1±ε) tier: same contract, a world of workloads.

    Mirrors ``test_statistical_guarantees.py``: seeded runs, generous
    budgets, and a one-miss slack so legitimate refactors that permute
    random draws don't flake the suite.
    """

    def test_triangle_sweep_meets_epsilon_across_worlds(self):
        # Budget 600 gives every cell >= ~15 expected sampler hits per
        # copy (hit rate = truth / (2m)^1.5), the regime where the
        # median-of-3 lands inside (1±0.5) with room to spare.
        grid = WorldGrid(
            families=[
                {"family": "gnp", "n": 32, "p": 0.3},
                {"family": "kronecker", "power": 6, "edges": 240},
                {"family": "config", "n": 64, "exponent": 2.0,
                 "min_degree": 2},
            ],
            scenarios=["insertion",
                       {"kind": "deletion_heavy", "deletion_rate": 0.4}],
            estimators=["insertion", "turnstile"],
            patterns=["triangle"],
            budgets=[600],
            copies=3,
            epsilon=0.5,
            seed=20220704,
            cache="lru:1M",
        )
        document = run_sweep(grid)
        rows = document["rows"]
        # 3 families x (insertion: 2 estimators; deletion: turnstile).
        assert len(rows) == 3 * 3
        assert all(row["truth"] > 0 for row in rows)
        violations = [row["cell"] for row in rows if row["eps_violation"]]
        assert len(violations) <= 1, (
            f"(1±0.5) violated in {len(violations)}/{len(rows)} cells: "
            f"{violations}"
        )

    def test_star_sweep_meets_epsilon_with_calibrated_budget(self):
        # S3 has rho = 3, so the hit rate is truth / (2m)^3 — a sparse
        # family at budget 400 sees ~0.06 expected hits and estimates
        # zero.  A (1±ε) claim for stars needs a budget sized like
        # test_statistical_guarantees' chernoff budgets: on this dense
        # family (m=81, truth=2822) 24000 trials give ~16 expected hits
        # per copy.
        grid = WorldGrid(
            families=[{"family": "gnp", "n": 14, "p": 0.9}],
            scenarios=["insertion"],
            estimators=["insertion", "two-pass"],
            patterns=["S3"],
            budgets=[24000],
            copies=5,
            epsilon=0.5,
            seed=20220704,
            cache="lru:1M",
        )
        document = run_sweep(grid)
        rows = document["rows"]
        assert len(rows) == 2
        assert all(row["truth"] > 0 for row in rows)
        violations = [row["cell"] for row in rows if row["eps_violation"]]
        assert not violations, (
            f"(1±0.5) violated at a calibrated S3 budget: {violations}"
        )
