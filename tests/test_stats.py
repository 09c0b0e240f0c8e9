import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import distmlc
from distmlc import stats
from distmlc.data import DataFormatError, read_csv_matrix

from conftest import significantly_different, write_result_table


def make_table(values, direction=stats.LOWER_BETTER):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return stats.ResultTable(
        methods=tuple(f"m{j}" for j in range(k)),
        datasets=tuple(f"d{i}" for i in range(n)),
        values=values,
        direction=direction,
    )


def loop_average_ranks(table):
    """average_ranks with one rankdata call per dataset (the reference for
    the single call over the table, which must give the same bits)."""
    from scipy.stats import rankdata
    vals = table.values if table.direction == stats.LOWER_BETTER else -table.values
    return np.vstack([rankdata(row, method="average") for row in vals]).mean(axis=0)


def loop_cd_groups(ranks, cd):
    """The CD groups by enumeration: every maximal run of rank-sorted methods
    whose rank spread is within cd, runs nested in a longer one dropped, each
    method in no run alone, all ordered by their first method's rank."""
    order = np.argsort(ranks, kind="stable")
    k = len(order)
    runs = []
    for i in range(k):
        j = i
        while j + 1 < k and ranks[order[j + 1]] - ranks[order[i]] <= cd:
            j += 1
        if j > i:
            runs.append(list(order[i : j + 1]))
    runs = [c for c in runs if not any(set(c) < set(other) for other in runs)]
    singles = [[i] for i in range(k) if not any(i in c for c in runs)]
    return sorted(runs + singles, key=lambda c: float(ranks[c[0]]))


class TestResultTable:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(81)
        t = make_table(rng.random((4, 3)))
        p = tmp_path / "t.csv"
        write_result_table(t, p)
        back = stats.ResultTable.from_csv(p, stats.LOWER_BETTER)
        assert back.methods == t.methods
        assert back.datasets == t.datasets
        assert (back.values == t.values).all()

    # datasets named by numbers, so that read_csv_matrix reads up to the refusal
    @pytest.mark.parametrize("text", ["dataset,a,b\n1,0.1,0.2\n2,0.2\n",
                                      "dataset,a,a\nd1,0.1,0.2\nd2,0.2,0.3\n"],
                             ids=["ragged-row", "repeated-column"])
    def test_csv_refusals_in_read_csv_matrix_wording(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError) as matrix:
            read_csv_matrix(p)
        with pytest.raises(DataFormatError, match="^" + re.escape(str(matrix.value)) + "$"):
            stats.ResultTable.from_csv(p, stats.LOWER_BETTER)

    def test_missing_cell_rejected(self):
        with pytest.raises(ValueError):
            make_table([[1.0, np.nan], [2.0, 3.0]])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_table([[1.0, 2.0]])


class TestAverageRanks:
    def test_hand_table_with_midranks(self):
        # dataset 0: 0.1 < 0.2 < 0.3 -> ranks 1,2,3
        # dataset 1: tie between the first two -> 1.5, 1.5, 3
        t = make_table([[0.1, 0.2, 0.3], [0.5, 0.5, 0.9]])
        np.testing.assert_allclose(stats.average_ranks(t), [1.25, 1.75, 3.0])

    def test_direction_flip(self):
        vals = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
        lo = stats.average_ranks(make_table(vals, stats.LOWER_BETTER))
        hi = stats.average_ranks(make_table(vals, stats.HIGHER_BETTER))
        np.testing.assert_allclose(lo, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(hi, [3.0, 2.0, 1.0])


class TestFriedman:
    def test_identical_columns_never_reject(self):
        t = make_table(np.tile([0.3, 0.3, 0.3], (5, 1)))
        stat, reject = stats.friedman_test(t)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert not reject

    def test_total_separation_rejects(self):
        # one method always best, one always worst, over 10 datasets
        base = np.arange(10, dtype=float)[:, None]
        t = make_table(base + np.array([0.0, 1.0, 2.0]) * 0.01)
        stat, reject = stats.friedman_test(t)
        # rank sums 10, 20, 30 -> statistic 12/(10*3*4)*1400 - 3*10*4 = 20
        assert stat == pytest.approx(20.0)
        assert reject

    def test_statistic_formula_oracle(self):
        rng = np.random.default_rng(82)
        vals = rng.random((7, 4))
        t = make_table(vals)
        stat, reject = stats.friedman_test(t)
        from scipy.stats import rankdata

        ranks = np.vstack([rankdata(r) for r in vals])
        R = ranks.sum(axis=0)
        n, k = vals.shape
        expected = 12.0 / (n * k * (k + 1)) * (R**2).sum() - 3 * n * (k + 1)
        assert stat == pytest.approx(expected, abs=1e-10)
        assert reject == (stat > chi2.ppf(0.95, df=k - 1))


class TestNemenyiCd:
    def test_k2_hand_value(self):
        # q = 1.96 for two methods; CD = 1.96 * sqrt(2*3/(6n))
        assert stats.nemenyi_cd(2, 10) == pytest.approx(
            1.96 * math.sqrt(6 / 60), abs=1e-4
        )

    def test_matches_demsar_published_q(self):
        # q_0.05 / sqrt(2) from Demsar (JMLR 2006), Table 5(a)
        for k, q in ((2, 1.960), (3, 2.343), (5, 2.728), (10, 3.164)):
            assert stats.nemenyi_cd(k, 8) == pytest.approx(
                q * math.sqrt(k * (k + 1) / 48), abs=5e-4
            )

    def test_shrinks_with_more_datasets(self):
        assert stats.nemenyi_cd(5, 100) < stats.nemenyi_cd(5, 10)

    def test_grows_past_twenty_methods(self):
        assert stats.nemenyi_cd(21, 10) > stats.nemenyi_cd(20, 10)

    def test_unsupported_inputs(self):
        for k in (1, 0):
            with pytest.raises(ValueError, match="at least 2 methods"):
                stats.nemenyi_cd(k, 10)


class TestCdDiagram:
    def test_two_clear_groups(self):
        # methods 0,1 close together and far from 2,3 over many datasets
        rng = np.random.default_rng(83)
        n = 30
        vals = np.column_stack([
            rng.normal(0.10, 0.05, n),
            rng.normal(0.11, 0.05, n),
            rng.normal(0.90, 0.05, n),
            rng.normal(0.91, 0.05, n),
        ])
        d = stats.cd_diagram_data(make_table(vals))
        assert d["friedman_reject"]
        assert ["m0", "m1"] in d["groups"]
        assert ["m2", "m3"] in d["groups"]
        assert significantly_different(d, "m0", "m2")
        assert not significantly_different(d, "m0", "m1")

    def test_all_tied_single_group(self):
        vals = np.tile([0.2, 0.2, 0.2], (6, 1))
        d = stats.cd_diagram_data(make_table(vals))
        assert d["groups"] == [["m0", "m1", "m2"]]

    def test_json_serializable(self, tmp_path):
        rng = np.random.default_rng(84)
        d = stats.cd_diagram_data(make_table(rng.random((5, 4))))
        p = tmp_path / "cd.json"
        stats.write_diagram_json(d, p)
        import json

        back = json.loads(p.read_text())
        assert back["methods"] == d["methods"]
        assert back["critical_difference"] == d["critical_difference"]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_references(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            k, n = int(rng.integers(2, 21)), int(rng.integers(2, 31))
            # spread methods apart by varying amounts; few distinct values give ties
            spread = rng.uniform(0.0, 3.0) * rng.random(k)
            vals = np.round(spread + rng.normal(size=(n, k)), int(rng.integers(0, 3)))
            table = make_table(vals, rng.choice([stats.LOWER_BETTER, stats.HIGHER_BETTER]))
            ranks = loop_average_ranks(table)
            np.testing.assert_array_equal(stats.average_ranks(table).view(np.int64),
                                          ranks.view(np.int64))
            d = stats.cd_diagram_data(table)
            assert d["groups"] == [[f"m{i}" for i in c]
                                   for c in loop_cd_groups(ranks, d["critical_difference"])]

    def test_isolated_method_is_singleton_group(self):
        rng = np.random.default_rng(85)
        n = 40
        vals = np.column_stack([
            rng.normal(0.1, 0.001, n),
            rng.normal(0.5, 0.001, n),
            rng.normal(0.9, 0.001, n),
        ])
        d = stats.cd_diagram_data(make_table(vals))
        assert [["m0"], ["m1"], ["m2"]] == d["groups"]


def test_package_import_leaves_scipy_stats_unimported():
    # scipy.stats takes longer to import than all of distmlc; only the
    # stats functions need it, so they import it when they run
    src = str(Path(distmlc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, distmlc; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
