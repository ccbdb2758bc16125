"""Command line interface: output formats, exit codes, determinism."""

import hashlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from birow import cli, nilp
from birow.cli import _CHECKS, main
from birow.grid_poset import RectPoset
from birow.nilp import decode, enum_nilp, family_json, phi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIterate:
    def test_symbolic_json(self, capsys):
        code, out, _ = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "1")
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "symbolic"
        assert data["labels"]["0,0"] == "(1)/(x[1,1])"

    def test_k_reduced_with_notice(self, capsys):
        code, out, _ = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "9")
        assert code == 0
        data = json.loads(out)
        assert any("reduced" in n for n in data["notices"])
        assert data["labels"]["0,0"] == "(1)/(x[1,1])"  # 9 mod 4 = 1
        code, out, _ = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "-3")
        assert code == 0
        data = json.loads(out)
        assert data["notices"] == ["k=-3 reduced to 1 modulo the period 4"]
        assert data["labels"]["0,0"] == "(1)/(x[1,1])"

    def test_labels_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "1",
                           "--mode", "rational", "--seed", "4")
        path = tmp_path / "labels.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "4",
                            "--labels", str(path))
        assert code == 0
        code, out3, _ = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "5",
                            "--mode", "rational", "--seed", "4")
        assert json.loads(out2)["labels"] == json.loads(out3)["labels"]

    def test_rejects_mismatched_labels_grid(self, capsys, tmp_path):
        _, out, _ = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "0",
                        "--mode", "rational")
        path = tmp_path / "labels.json"
        path.write_text(out)
        code, _, err = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "1",
                           "--labels", str(path))
        assert code == 2 and "labels" in err
        labels = json.loads(out)
        missing = dict(labels, labels={k: v for k, v in labels["labels"].items()
                                       if k != "1,1"})
        outside = dict(labels, labels=dict(labels["labels"], **{"2,0": "1"}))
        zero_den = dict(labels, mode="symbolic",
                        labels={k: "(x[0,0])/(0)" for k in labels["labels"]})
        bad = {"missing.json": json.dumps(missing), "outside.json": json.dumps(outside),
               "text.json": "not json", "shape.json": "[1, 2]",
               "list.json": json.dumps(dict(labels, labels=[1])),
               "badkey.json": json.dumps(dict(labels, labels={"a,b": "1"})),
               "float.json": json.dumps(dict(labels, r=1.0)),
               "bool.json": json.dumps(dict(labels, r=True)),
               "zeroden.json": json.dumps(zero_den),
               # "00,1" and "0,1" name one point
               "dupkey.json": json.dumps(dict(labels, labels=dict(labels["labels"],
                                                                  **{"00,1": "3"}))),
               # Fraction would expand the exponent in full
               "exponent.json": json.dumps(dict(labels, labels=dict(labels["labels"],
                                                                    **{"0,1": "1e999999999"})))}
        for name, text in bad.items():
            (tmp_path / name).write_text(text)
        for name in [*bad, "absent.json"]:
            t0 = time.monotonic()
            code, out, err = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "1",
                                 "--labels", str(tmp_path / name))
            assert time.monotonic() - t0 < 1, name
            assert code == 2 and "labels" in err and not out, name

    def test_a_labels_file_naming_a_huge_grid_is_rejected_at_once(self, capsys, tmp_path):
        # One label on a 100000 x 100000 grid: the count of points alone
        # rejects it, with no list of the 10^10 members built.
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"r": 100000, "s": 100000, "mode": "rational",
                                    "labels": {"0,0": "1"}}))
        t0 = time.monotonic()
        code, out, err = run(capsys, "iterate", "--r", "100000", "--s", "100000", "--k", "1",
                             "--mode", "rational", "--labels", str(path))
        assert time.monotonic() - t0 < 1
        assert (code, out) == (2, "") and "Traceback" not in err
        assert "labels must name each point of the 100000x100000 grid exactly once" in err

    def test_rejects_an_unknown_labels_mode(self, capsys, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"r": 1, "s": 1, "mode": "PL",
                                    "labels": {"0,0": "1/4", "0,1": "1/2", "1,0": "1/3",
                                               "1,1": "3/4"}}))
        code, out, err = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "1",
                             "--labels", str(path))
        assert (code, out) == (2, "")
        assert "mode 'PL': must be one of 'rational', 'symbolic', 'pl'" in err

    def test_labels_without_a_mode_read_as_rational(self, capsys, tmp_path):
        _, out, _ = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "0",
                        "--mode", "rational", "--seed", "2")
        labels = json.loads(out)
        outs = []
        for data in (labels, {k: v for k, v in labels.items() if k != "mode"}):
            path = tmp_path / "labels.json"
            path.write_text(json.dumps(data))
            code, out, _ = run(capsys, "iterate", "--r", "2", "--s", "1", "--k", "3",
                               "--labels", str(path))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] and json.loads(outs[0])["mode"] == "rational"

    def test_piecewise_linear_labels(self, capsys, tmp_path):
        """A "pl" labeling runs the max-plus toggle max(lower) + min(upper) - x,
        bottom 0 and top 1, and returns to its start after the period 4."""
        start = {"0,0": "1/4", "0,1": "1/2", "1,0": "1/3", "1,1": "3/4"}
        path = tmp_path / "labels.json"
        out = json.dumps({"r": 1, "s": 1, "mode": "pl", "labels": start})
        steps = []
        for _ in range(4):
            path.write_text(out)
            code, out, _ = run(capsys, "iterate", "--r", "1", "--s", "1", "--k", "1",
                               "--labels", str(path))
            assert code == 0
            steps.append(json.loads(out))
        assert steps[0] == {"r": 1, "s": 1, "mode": "pl",
                            "labels": {"0,0": "1/4", "0,1": "1/2", "1,0": "2/3",
                                       "1,1": "3/4"}}
        assert steps[-1]["labels"] == start

    def test_labels_with_zero_and_opposite_signs(self, capsys, tmp_path):
        """Exact output of toggling through a zero label or through upper
        covers that cancel, as recorded before the parallel sum went
        through reciprocals."""
        pole = "arithmetic fault: parallel sum pole: a + b = 0\n"
        cases = [
            # an upper cover of (0,0) labelled 0: toggling (1,0) divides by it
            (1, 1, {"0,0": "2", "0,1": "3", "1,0": "0", "1,1": "5"},
             "arithmetic fault: pole while toggling at (1, 0)\n"),
            # the upper covers of (0,0) have opposite signs
            (1, 1, {"0,0": "2", "0,1": "-3", "1,0": "3", "1,1": "5"}, pole),
            # (1,1) toggles to 0, (1,0) takes 0 ∥ 1 = 0, (0,0) meets 0 ∥ 0
            (2, 1, {"0,0": "2", "0,1": "-1", "1,0": "1", "1,1": "2", "2,0": "2",
                    "2,1": "2"}, pole),
        ]
        for r, s, labels, err_want in cases:
            path = tmp_path / "labels.json"
            path.write_text(json.dumps({"r": r, "s": s, "mode": "rational",
                                        "labels": labels}))
            got = run(capsys, "iterate", "--r", str(r), "--s", str(s), "--k", "1",
                      "--labels", str(path))
            assert got == (3, "", err_want), labels


class TestFormula:
    def test_x_frame_plain(self, capsys):
        code, out, _ = run(capsys, "formula", "--r", "3", "--s", "2", "--i", "2",
                           "--j", "1", "--k", "6", "--frame", "x", "--plain")
        assert code == 0
        assert out.strip() == "x[2,1]"

    def test_a_frame_json(self, capsys):
        code, out, _ = run(capsys, "formula", "--r", "3", "--s", "2", "--i", "2",
                           "--j", "1", "--k", "0")
        data = json.loads(out)
        assert code == 0 and data["frame"] == "A"
        assert data["value"] == "(A[2,1]*A[2,2]*A[3,1]*A[3,2])/(A[2,2] + A[3,1])"

    def test_a_frame_unavailable(self, capsys):
        code, _, err = run(capsys, "formula", "--r", "3", "--s", "2", "--i", "2",
                           "--j", "1", "--k", "4", "--frame", "a")
        assert code == 2 and "M > k" in err

    def test_out_of_range_names_flag(self, capsys):
        verify = "verify periodicity --r 3 --s 3 --mode rational --trials".split()
        for argv, flag in [("formula --r 3 --s 2 --i 5 --j 1 --k 0".split(), "--i"),
                           (verify + ["0"], "--trials"), (verify + ["-2"], "--trials")]:
            code, out, err = run(capsys, *argv)
            assert code == 2 and flag in err and not out, argv


class TestPhi:
    def test_plain_value(self, capsys):
        code, out, _ = run(capsys, "phi", "--r", "3", "--s", "2", "--m", "1",
                           "--n", "0", "--k", "2", "--plain")
        assert code == 0
        assert out.strip() == "A[1,2] + A[2,1] + A[3,0]"

    def test_family_listing(self, capsys):
        code, out, _ = run(capsys, "phi", "--r", "3", "--s", "2", "--m", "1",
                           "--n", "0", "--k", "2", "--list-families")
        data = json.loads(out)
        assert code == 0 and len(data["families"]) == 3
        assert all(len(f) == 2 for f in data["families"])

    def test_order_out_of_range(self, capsys):
        code, _, err = run(capsys, "phi", "--r", "3", "--s", "2", "--m", "1",
                           "--n", "0", "--k", "4")
        assert code == 2 and "--k" in err

    @staticmethod
    def payload(r, s, m, n, k, families: bool) -> dict:
        """The JSON of phi as the decoded Polynomial renders it, with no
        streaming."""
        region = RectPoset(r, s).hexagon(m, n, k)
        out = {"r": r, "s": s, "m": m, "n": n, "k": k,
               "phi": decode(region.poset, phi(region)).render()}
        if families:
            out["families"] = [family_json(region, fam) for fam in enum_nilp(region)]
        return out

    @pytest.mark.parametrize("grid", [(5, 5, 0, 0, 3), (4, 4, 0, 0, 2), (5, 4, 1, 0, 3),
                                      (1, 1, 1, 1, 1), (0, 0, 0, 0, 0)])
    def test_streamed_output_is_the_joined_json(self, capsys, grid):
        argv = ["phi"] + [f for name, v in zip("rsmnk", grid) for f in (f"--{name}", str(v))]
        for flags, families in (([], False), (["--list-families"], True)):
            want = json.dumps(self.payload(*grid, families), indent=2, sort_keys=True)
            assert run(capsys, *argv, *flags) == (0, want + "\n", "")
        text = self.payload(*grid, False)["phi"]
        assert run(capsys, *argv, "--plain") == (0, text + "\n", "")

    def test_a_region_with_no_family_is_written_0(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "phi", lambda region: [])
        argv = ["phi", "--r", "2", "--s", "2", "--m", "0", "--n", "0", "--k", "1"]
        want = {"r": 2, "s": 2, "m": 0, "n": 0, "k": 1, "phi": "0"}
        assert run(capsys, *argv) == (0, json.dumps(want, indent=2, sort_keys=True) + "\n", "")
        assert run(capsys, *argv, "--plain") == (0, "0\n", "")

    def test_a_large_phi_is_written_in_pieces(self, monkeypatch):
        # 6x6 k=3 has 24 696 terms, written in batches of 4096: no one write
        # holds the whole text.
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": staticmethod(writes.append)}))
        command = "phi --r 6 --s 6 --m 0 --n 0 --k 3"
        assert main(command.split()) == 0
        out = "".join(writes)
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]
        assert len(writes) > 7 and max(map(len, writes)) < len(out) // 5

    def test_too_many_families_exit_3_at_once(self, capsys, monkeypatch):
        # The path counts alone put each region over the budget: no path is listed.
        monkeypatch.setattr(nilp, "enum_paths", lambda *a: pytest.fail("listed paths"))
        for n, k, count in [(8, 3, 24293412), (13, 1, 10400600), (14, 1, 40116600)]:
            t0 = time.monotonic()
            code, out, err = run(capsys, "phi", "--r", str(n), "--s", str(n), "--m", "0",
                                 "--n", "0", "--k", str(k))
            assert time.monotonic() - t0 < 1
            assert code == 3 and out == ""
            assert err == (f"budget exceeded: the hexagon m=0 n=0 k={k} of the {n}x{n} grid has "
                           f"{count} path families, more than FAMILY_BUDGET = 4194304, the most "
                           "enum_nilp lists\n")


def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch):
    # A command that runs out of memory exits 3, as an exceeded budget
    # does, with one line on stderr and no traceback.
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setitem(cli._CHECKS, "ledger", (exhausted, ("d",)))
    code, out, err = run(capsys, "verify", "ledger", "--r", "3000", "--s", "2999", "--d", "0")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: out of memory in birow verify\n"


class TestOrbit:
    def test_single_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--r", "1", "--s", "1",
                           "--ideal", "0,0")
        data = json.loads(out)
        assert code == 0
        assert data["orbits"][0]["length"] == 4
        assert data["orbits"][0]["size_average"] == "2"

    def test_all_orbits(self, capsys):
        code, out, _ = run(capsys, "orbit", "--r", "2", "--s", "2")
        data = json.loads(out)
        assert code == 0
        assert sorted(o["length"] for o in data["orbits"]) == [2, 6, 6, 6]

    def test_bad_ideal(self, capsys):
        for ideal in ["1,1", "a,b", "0,0;1", "0,0,0", "5,5"]:
            code, _, err = run(capsys, "orbit", "--r", "1", "--s", "1",
                               "--ideal", ideal)
            assert code == 2 and err, ideal

    @pytest.mark.parametrize("n", ["30", "1000000"])
    @pytest.mark.parametrize("command", [["orbit"], ["verify", "combinatorial"]])
    def test_too_many_ideals_exit_3_at_once(self, capsys, command, n):
        # Walking every orbit of an n x n grid would mark C(2n+2, n+1) ideals;
        # the budget refuses it before any is counted in full or marked.
        t0 = time.monotonic()
        code, out, err = run(capsys, *command, "--r", n, "--s", n)
        assert time.monotonic() - t0 < 1
        assert code == 3 and out == "", err
        assert err == (f"budget exceeded: the {n}x{n} grid has more order ideals than "
                       "IDEAL_BUDGET = 16777216, the most the orbit walk marks\n")

    def test_one_orbit_of_a_large_grid_is_walked(self, capsys):
        code, out, _ = run(capsys, "orbit", "--r", "30", "--s", "30", "--ideal", "")
        data = json.loads(out)
        assert code == 0
        assert data["orbits"][0]["length"] == 62
        assert data["orbits"][0]["size_average"] == str(Fraction(31 * 31, 2))


class TestVerify:
    def test_periodicity_report(self, capsys):
        code, out, _ = run(capsys, "verify", "periodicity", "--r", "1", "--s", "1",
                           "--mode", "symbolic")
        data = json.loads(out)
        assert code == 0
        rep = data["reports"][0]
        assert rep["passed"] is True
        assert rep["notes"]["observed_minimal_periods"] == [4]

    def test_plain_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "combinatorial", "--r", "2", "--s", "2",
                           "--plain")
        assert code == 0
        assert out.strip() == "combinatorial-homomesy r=2 s=2: PASS"

    def test_file_homomesy_all_files(self, capsys):
        code, out, _ = run(capsys, "verify", "file-homomesy", "--r", "2", "--s", "1")
        data = json.loads(out)
        assert code == 0 and len(data["reports"]) == 4

    def test_every_file_matches_the_single_file_runs(self, capsys):
        # One orbit serves every file; each report is the one its own --d
        # run prints, in the order of report names.
        flags = ("verify", "file-homomesy", "--r", "4", "--s", "3", "--mode", "rational",
                 "--seed", "2")
        code, out, _ = run(capsys, *flags)
        assert code == 0
        single = []
        for t in range(-4, 4):
            code, one, _ = run(capsys, *flags, "--d", str(t))
            assert code == 0
            single += json.loads(one)["reports"]
        assert json.loads(out)["reports"] == sorted(single, key=lambda rp: rp["name"])

    def test_ledger_requires_d(self, capsys):
        code, _, err = run(capsys, "verify", "ledger", "--r", "4", "--s", "3")
        assert code == 2 and "--d" in err
        code, out, _ = run(capsys, "verify", "ledger", "--r", "4", "--s", "3",
                           "--d", "2")
        assert code == 0

    def test_plucker_requires_query(self, capsys):
        code, _, err = run(capsys, "verify", "plucker", "--r", "2", "--s", "2")
        assert code == 2
        code, out, _ = run(capsys, "verify", "plucker", "--r", "2", "--s", "2",
                           "--i", "1", "--j", "1", "--k", "1")
        assert code == 0

    def test_invalid_plucker_query_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "plucker", "--r", "2", "--s", "2",
                           "--i", "1", "--j", "0", "--k", "2")
        assert code == 2

    def test_plucker_query_off_the_grid_names_the_flag(self, capsys):
        for flags, message in ((("--i", "9", "--j", "3"), "--i value 9 outside [0, 4]"),
                               (("--i", "-1", "--j", "3"), "--i value -1 outside [0, 4]"),
                               (("--i", "3", "--j", "5"), "--j value 5 outside [0, 4]")):
            code, out, err = run(capsys, "verify", "plucker", "--r", "4", "--s", "4",
                                 *flags, "--k", "3")
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_every_flag_a_check_does_not_read_is_a_usage_error(self, capsys):
        # Every check against every optional verify flag: an unread flag
        # exits 2 with its name on stderr and nothing on stdout; a read one
        # is never refused as unread.
        refused = []
        for check, (_, reads) in _CHECKS.items():
            for flag in ("d", "i", "j", "k", "mode", "trials", "seed"):
                value = "rational" if flag == "mode" else "1"
                code, out, err = run(capsys, "verify", check, "--r", "2", "--s", "2",
                                     f"--{flag}", value)
                if flag in reads:
                    assert "is not read" not in err, (check, flag)
                    continue
                assert (code, out, err) == \
                    (2, "", f"error: --{flag} is not read by the {check} check\n")
                refused.append((check, flag))
        assert len(refused) == 40

    def test_every_small_plucker_query_exits_0_or_2(self, capsys):
        # Every query on grids up to 2x2, in range or one step outside it,
        # passes or is a usage error; none fails or ends in a traceback.
        codes = Counter()
        for r in range(3):
            for s in range(3):
                for i in range(-1, r + 2):
                    for j in range(-1, s + 2):
                        for k in range(r + s + 3):
                            codes[run(capsys, "verify", "plucker", "--r", str(r), "--s", str(s),
                                      "--i", str(i), "--j", str(j), "--k", str(k))[0]] += 1
        assert codes == {0: 48, 2: 720}


def test_determinism(capsys):
    a = run(capsys, "iterate", "--r", "2", "--s", "2", "--k", "3",
            "--mode", "rational", "--seed", "11")
    b = run(capsys, "iterate", "--r", "2", "--s", "2", "--k", "3",
            "--mode", "rational", "--seed", "11")
    assert a == b


# sha256 of stdout for commands whose printed form depends on the exact
# unreduced x-frame substitution, on the rendering of factored values, and on
# the term order of phi and the order of its families, for the largest
# outputs of polynomial products and of the Plucker check, and for the order
# of combinatorial orbits and of the ideals within them.
PINNED = {
    "formula --r 3 --s 2 --i 2 --j 1 --k 6 --frame x":
        "5768b22b854a13779abdb2f0053d377ddbe49099e560a5d4bc895ebb39163d14",
    "formula --r 3 --s 2 --i 2 --j 1 --k 0 --frame x":
        "cdc32201475531afb08389c54342d5ef8ef0de56f2f821c46bd1af86b6875bfb",
    "iterate --r 1 --s 2 --k 3":
        "4258ca369d62164b8cfbbcbd9e098e3d9e5b702f0e2b2a6183833928991938d9",
    "phi --r 5 --s 5 --m 0 --n 0 --k 3":
        "fba34a6fcf3a92fd86fa8fe30cd5f11535bffa7f6fcac139c80502585a653ba9",
    "phi --r 4 --s 4 --m 0 --n 0 --k 2 --list-families":
        "c33643dea55067bf6951dce3e2fa5f0b3f175feeb598a4ad6e8e05c735147dbb",
    "phi --r 5 --s 5 --m 0 --n 0 --k 4":
        "a429307150d271a45debcf95b6867b9304b383ac6afe3c1b5bd55461a856269a",
    "phi --r 5 --s 5 --m 0 --n 0 --k 1":
        "b4a73ad809a18117aeaaab06ba2bd653061b252ba665d78e0750ad395ff6618b",
    "iterate --r 3 --s 1 --k 4":
        "05dc47657426d2bfbec2a7e84671debe3c6c8bb1eced6284091c0edee6d8157d",
    "formula --r 3 --s 3 --i 2 --j 1 --k 6 --frame x":
        "a9205dd65b8ed92e126922f4015e1e553553ad93f6e990389b4e758a4491fe9c",
    "verify plucker --r 4 --s 4 --i 3 --j 3 --k 3":
        "1d6009c679d1eb704909bfc5763254ae68942d7be46b19c5fcb0b7f268e776dc",
    "verify plucker --r 4 --s 3 --i 3 --j 2 --k 4":
        "be7cf6d4c06b5a9ed75a626d8915d1c428333dd77783422f664c83998cb967b3",
    "orbit --r 4 --s 4":
        "f8909615280c0d2e0926867094b5051cf39d354c8c5b7ad15acddce2005f19cc",
    "verify combinatorial --r 5 --s 5":
        "28c3d08901bde37314f34066632a1f4dc7302f9efb6df4a53b557ac9d4e13f39",
    "phi --r 6 --s 6 --m 0 --n 0 --k 3":
        "2aba7d6bd01870e26beab4588ee29b91fd78ece5afe027667f6917d90a70d65c",
    "phi --r 5 --s 4 --m 1 --n 0 --k 3 --list-families":
        "102509ea2d20eb89ce94b30fae1d786ed8253b268734a84faad565e61793c5d3",
}


def test_pinned_output_digests(capsys):
    for command, digest in PINNED.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


@pytest.mark.parametrize("argv, text", [
    (["iterate", "--r", "1", "--s", "1", "--k", "1"],
     "(0,0) = (1)/(x[1,1])\n"
     "(0,1) = (x[0,0]*x[0,1] + x[0,0]*x[1,0])/(x[0,1]*x[1,1])\n"
     "(1,0) = (x[0,0]*x[0,1] + x[0,0]*x[1,0])/(x[1,0]*x[1,1])\n"
     "(1,1) = (x[0,1] + x[1,0])/(x[1,1])\n"),
    (["formula", "--r", "1", "--s", "1", "--i", "0", "--j", "0", "--k", "1"],
     "(x[1,1])/(x[0,1] + x[1,0])\n"),
    (["phi", "--r", "1", "--s", "1", "--m", "0", "--n", "0", "--k", "1"],
     "A[0,1] + A[1,0]\n"),
    (["orbit", "--r", "1", "--s", "1"],
     "orbit of length 4, size average 2\norbit of length 2, size average 2\n"),
    (["verify", "reciprocity", "--r", "1", "--s", "1"],
     "reciprocity r=1 s=1 mode=symbolic: PASS\n"),
])
def test_plain_text_is_built_only_when_printed(monkeypatch, capsys, argv, text):
    built, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, plain, plain_text: emit(
        payload, plain, lambda: built.append(argv[0]) or plain_text()))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out) and built == []
    assert run(capsys, *argv, "--plain") == (0, text, "") and built == [argv[0]]
