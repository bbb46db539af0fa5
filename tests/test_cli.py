import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigged
from rigged import identities
from rigged.bijection import RiggedPartition
from rigged.cli import _parse_config, _parse_partition, main
from rigged.configuration import Configuration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_flags(form, text):
    """``--config`` with its value as the next argument (``space``) or after ``=`` (``equals``)."""
    return ("--config", text) if form == "space" else (f"--config={text}",)


class TestMapUnmap:
    def test_map(self, capsys):
        code, out, _ = run(capsys, "map", "--k", "3", "--config", "0:3,0,0,1")
        assert code == 0
        assert json.loads(out) == {
            "parts": [{"weight": 3, "rigging": 0}, {"weight": 1, "rigging": 0}]
        }

    def test_map_zero(self, capsys):
        code, out, _ = run(capsys, "map", "--k", "1", "--config", "0:")
        assert code == 0 and json.loads(out) == {"parts": []}

    def test_map_rejects_inadmissible(self, capsys):
        code, _, err = run(capsys, "map", "--k", "1", "--config", "0:2")
        assert code == 2 and "error" in err

    def test_unmap(self, capsys):
        partition = json.dumps({"parts": [{"weight": 3, "rigging": 0}, {"weight": 1, "rigging": 0}]})
        code, out, _ = run(capsys, "unmap", "--k", "3", "--partition", partition)
        assert code == 0 and out.strip() == "0:3,0,0,1"

    def test_unmap_json(self, capsys):
        partition = json.dumps({"parts": [{"weight": 3, "rigging": 0}, {"weight": 1, "rigging": 0}]})
        code, out, _ = run(capsys, "unmap", "--k", "3", "--partition", partition, "--json")
        assert (code, out) == (0, '{"offset": 0, "counts": [3, 0, 0, 1]}\n')

    def test_unmap_empty(self, capsys):
        code, out, _ = run(capsys, "unmap", "--k", "2", "--partition", '{"parts": []}')
        assert code == 0 and out.strip() == "0:"

    def test_unmap_malformed(self, capsys):
        bad = json.dumps({"parts": [{"weight": 1, "rigging": 0}, {"weight": 2, "rigging": 0}]})
        code, _, err = run(capsys, "unmap", "--k", "2", "--partition", bad)
        assert code == 2 and "error" in err

    def test_unmap_far_negative_rigging(self, capsys):
        partition = json.dumps({"parts": [{"weight": 2, "rigging": -10**6}]})
        code, out, _ = run(capsys, "unmap", "--k", "3", "--partition", partition)
        assert code == 0 and out.strip() == "-500000:2"

    @pytest.mark.parametrize("rigging", ["1.5", "true"])
    def test_unmap_rejects_non_integer_rigging(self, capsys, rigging):
        partition = '{"parts":[{"weight":2,"rigging":%s}]}' % rigging
        code, out, err = run(capsys, "unmap", "--k", "3", "--partition", partition)
        assert code == 2 and out == "" and err.startswith("error:") and "integer" in err

    @pytest.mark.parametrize(
        "partition, message",
        [
            ('{"prts": [{"weight": 1, "rigging": 0}]}', "unknown key 'prts' in rigged partition"),
            ('{"parts": [{"weight": 1, "rigging": 0}], "offset": 0}', "unknown key 'offset' in rigged partition"),
            ("{}", "rigged partition needs the key 'parts'"),
            ('{"parts": [{"weight": 1}]}', "part needs the key 'rigging'"),
            ('{"parts": [{"rigging": 0}]}', "part needs the key 'weight'"),
            ('{"parts": [{"weight": 1, "rigging": 0, "energy": 3}]}', "unknown key 'energy' in part"),
            ('{"parts": [[1, 0]]}', "part must be a JSON object"),
            ('{"parts": {"weight": 1, "rigging": 0}}', "parts must be a JSON array"),
            ('{"parts": null}', "parts must be a JSON array"),
            ("null", "rigged partition must be a JSON object"),
            ("[]", "rigged partition must be a JSON object"),
            ("3", "rigged partition must be a JSON object"),
        ],
    )
    def test_unmap_rejects_misshapen_json(self, capsys, partition, message):
        code, out, err = run(capsys, "unmap", "--k", "3", "--partition", partition)
        assert (code, out) == (2, "") and err.startswith("error: cannot parse rigged partition") and message in err

    def test_unmap_wide_mixed_sign_spread(self, capsys, monkeypatch):
        # RIGGED_DEBUG=1 rescans the whole buffer on every sweep by design.
        monkeypatch.delenv("RIGGED_DEBUG", raising=False)
        for k, parts in ((3, ((2, -20000), (1, 20000))), (4, ((3, 0), (3, -50000), (2, 7), (1, 90000)))):
            partition = json.dumps({"parts": [{"weight": w, "rigging": r} for w, r in parts]})
            code, out, _ = run(capsys, "unmap", "--k", str(k), "--partition", partition)
            assert code == 0
            code, back, _ = run(capsys, "map", "--k", str(k), f"--config={out.strip()}")
            assert code == 0 and json.loads(back) == json.loads(partition)

    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_map_negative_offset(self, capsys, form):
        code, out, err = run(capsys, "map", "--k", "3", *config_flags(form, "-5:1,1,0,2"))
        # Shifting 0:1,1,0,2 (riggings 1, 1) down by 5 lowers each weight-2 rigging by 10.
        assert (code, err) == (0, "")
        assert json.loads(out) == {"parts": [{"weight": 2, "rigging": -9}, {"weight": 2, "rigging": -9}]}

    def test_roundtrip_through_text(self, capsys):
        code, out, _ = run(capsys, "map", "--k", "4", "--config", "1,1,1")
        assert code == 0
        code, out2, _ = run(capsys, "unmap", "--k", "4", "--partition", out.strip())
        assert code == 0 and out2.strip() == "0:1,1,1"


class TestTrace:
    def test_right_chain(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--k", "3", "--l", "3", "--right", "6", "--config", "0:3,0,0,1"
        )
        assert code == 0
        assert out.strip().splitlines() == [
            "0:3,0,0,1  [S@0]",
            "0:2,1,0,1  [S@0]",
            "0:1,2,0,1  [L@1]",
            "0:1,1,1,1  [L@1]",
            "0:1,0,2,1  [S@2]",
            "0:1,0,1,2  [S@2]",
            "0:1,0,0,3  [S@3]",
        ]

    def test_zero_steps_echoes(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--k", "3", "--l", "3", "--right", "0", "--config", "0:3,0,0,1"
        )
        assert code == 0 and out.strip().splitlines() == ["0:3,0,0,1  [S@0]"]

    def test_pass_nodes(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--k", "4", "--l", "3", "--pass", "--config", "0:1,1,1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "S@3  0:1,1,1,0,3",
            "L@2  0:1,1,1,1,2",
            "S@1  0:1,1,2,0,2",
            "S@0  0:1,2,1,0,2",
            "S@-1  0:3,0,1,0,2",
            "result  2:1,0,2",
        ]

    def test_left_trace(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--k", "3", "--l", "3", "--left", "1", "--config", "0:2,1,0,1"
        )
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("0:3,0,0,1")
        code, out, _ = run(
            capsys, "trace", "--k", "4", "--l", "3", "--left", "3", "--config", "0:1,1,1,1,2"
        )
        assert code == 0
        assert out.strip().splitlines() == [
            "0:1,1,1,1,2  [L@2]",
            "0:1,1,2,0,2  [S@1]",
            "0:1,2,1,0,2  [S@0]",
            "0:2,1,1,0,2  [S@0]",
        ]

    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_negative_offset(self, capsys, form):
        code, out, err = run(capsys, "trace", "--k", "4", "--l", "3", "--pass", *config_flags(form, "-3:1,1,1"))
        assert (code, err) == (0, "")
        # The worked passing history of 0:1,1,1, three columns lower.
        assert out.strip().splitlines() == [
            "S@0  -3:1,1,1,0,3",
            "L@-1  -3:1,1,1,1,2",
            "S@-2  -3:1,1,2,0,2",
            "S@-3  -3:1,2,1,0,2",
            "S@-4  -3:3,0,1,0,2",
            "result  -1:1,0,2",
        ]
        code, out, err = run(capsys, "trace", "--k", "3", "--l", "2", "--right", "2", *config_flags(form, "-5:1,1,0,2"))
        assert (code, err) == (0, "")
        assert out.strip().splitlines() == ["-5:1,1,0,2  [S@-2]", "-5:1,1,0,1,1  [S@-2]", "-5:1,1,0,0,2  [S@-1]"]

    @pytest.mark.parametrize(
        "flags, out",
        [
            (
                ("--k", "3", "--l", "3", "--right", "2", "--config", "0:3,0,0,1"),
                '[{"config": {"offset": 0, "counts": [3, 0, 0, 1]}, "particle": "S@0"}, '
                '{"config": {"offset": 0, "counts": [2, 1, 0, 1]}, "particle": "S@0"}, '
                '{"config": {"offset": 0, "counts": [1, 2, 0, 1]}, "particle": "L@1"}]\n',
            ),
            (
                ("--k", "4", "--l", "3", "--left", "2", "--config", "0:1,1,1,1,2"),
                '[{"config": {"offset": 0, "counts": [1, 1, 1, 1, 2]}, "particle": "L@2"}, '
                '{"config": {"offset": 0, "counts": [1, 1, 2, 0, 2]}, "particle": "S@1"}, '
                '{"config": {"offset": 0, "counts": [1, 2, 1, 0, 2]}, "particle": "S@0"}]\n',
            ),
            (
                ("--k", "4", "--l", "3", "--pass", "--config", "0:1,1,1"),
                '{"nodes": [{"kind": "S", "position": 3, "config": {"offset": 0, "counts": [1, 1, 1, 0, 3]}}, '
                '{"kind": "L", "position": 2, "config": {"offset": 0, "counts": [1, 1, 1, 1, 2]}}, '
                '{"kind": "S", "position": 1, "config": {"offset": 0, "counts": [1, 1, 2, 0, 2]}}, '
                '{"kind": "S", "position": 0, "config": {"offset": 0, "counts": [1, 2, 1, 0, 2]}}, '
                '{"kind": "S", "position": -1, "config": {"offset": 0, "counts": [3, 0, 1, 0, 2]}}], '
                '"result": {"offset": 2, "counts": [1, 0, 2]}}\n',
            ),
        ],
        ids=["right", "left", "pass"],
    )
    def test_json(self, capsys, flags, out):
        assert run(capsys, "trace", *flags, "--json") == (0, out, "")

    @pytest.mark.parametrize("direction", ["--right", "--left"])
    def test_weight_zero_move_rejected(self, capsys, direction):
        code, out, err = run(capsys, "trace", "--k", "2", "--l", "0", direction, "1", "--config", "0:")
        assert code == 2 and out == "" and err.startswith("error:") and "no weight-0 particle" in err

    def test_needs_direction(self, capsys):
        code, _, err = run(capsys, "trace", "--k", "3", "--l", "3", "--config", "0:3,0,0,1")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "flags",
        [("--right", "1", "--left", "1"), ("--pass", "--right", "1"), ("--pass", "--left", "0")],
    )
    def test_rejects_conflicting_directions(self, capsys, flags):
        code, out, err = run(capsys, "trace", "--k", "3", "--l", "3", *flags, "--config", "0:3,0,0,1")
        assert code == 2 and out == "" and err.startswith("error:") and "exactly one" in err


class TestChiAndSum:
    def test_chi_text(self, capsys):
        code, out, _ = run(
            capsys, "chi", "--k", "1", "--l", "1", "--a", "0", "--b", "0", "--N", "3"
        )
        assert code == 0 and out.strip() == "1 + q^2 + q^3"

    def test_chi_json(self, capsys):
        code, out, _ = run(
            capsys, "chi", "--k", "1", "--l", "1", "--a", "0", "--b", "0", "--N", "3", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": {"0": "1", "2": "1", "3": "1"}, "order": None}

    def test_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "1", "--r", "3", "--max-degree", "3")
        assert code == 0 and out.strip() == "2 + q + q^2 + 2*q^3"

    def test_sum_needs_bound(self, capsys):
        code, _, err = run(capsys, "sum", "--k", "1")
        assert code == 2 and "error" in err


class TestNegativeBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sum", "--k", "2", "--N", "-1"),
            ("sum", "--k", "2", "--max-degree", "-1"),
            ("verify", "boundary", "--k", "2", "--l", "2", "--N", "-2"),
            ("verify", "gordon", "--k", "2", "--max-degree", "-1"),
            ("verify", "shift", "--k", "3", "--l", "2", "--width", "-1"),
            ("trace", "--k", "3", "--l", "3", "--right", "-2", "--config", "0:3,0,0,1"),
            ("trace", "--k", "3", "--l", "3", "--left", "-1", "--config", "0:2,1,0,1"),
        ],
    )
    def test_rejected_with_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "non-negative" in err


class TestVerifyAllLevel:
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_rejects_level_below_one(self, capsys, k):
        code, out, err = run(capsys, "verify", "all", "--k", k)
        assert code == 2 and out == "" and err.startswith("error:") and "at least 1" in err


class TestVerify:
    def test_gordon_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "gordon", "--k", "2", "--max-degree", "12")
        assert code == 0 and "PASS" in out

    def test_polynomial_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "polynomial", "--k", "1", "--l", "1", "--a", "1", "--b", "0", "--N", "3",
            "--json",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["passed"] and report["lhs"] == "1 + q^3"

    def test_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "golden")
        assert code == 0 and "PASS" in out

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--k", "1", "--N", "2", "--max-degree", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_all_default_grid(self, capsys):
        # The report list of the default grid is a contract; perfbench keeps its copy.
        code, out, _ = run(capsys, "verify", "all", "--json")
        reports = json.loads(out)
        assert code == 0 and all(r["passed"] for r in reports)
        expected = json.loads((Path(__file__).parents[1] / "perfbench" / "grid_reports.json").read_text())
        assert [[r["name"], r["parameters"]] for r in reports] == expected

    def test_all_json_digest(self, capsys):
        # The whole output of the default grid, byte for byte: 60,680 bytes since the seed.
        code, out, err = run(capsys, "verify", "all", "--json")
        assert (code, err, len(out)) == (0, "", 60680)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "662b3b047172c20f861566bc1bc4701ca8a4e773868b560e5125030b4201acb0"
        )

    def test_missing_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gordon"])
        assert exc.value.code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--k", "notanint", "--config", "0:1"])
        assert exc.value.code == 2


class TestVerifyEachCheck:
    """Every ``verify`` check, its ``--N`` default and its required flags, through ``main``."""

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("roundtrip", "--k", "2", "--N", "5"), "roundtrip k=2 N=5 configurations=76: PASS\n"),
            (("roundtrip", "--k", "1"), "roundtrip k=1 N=6 configurations=19: PASS\n"),
            (("gordon-r2", "--k", "2", "--max-degree", "10"), "gordon-r2 k=2 max_degree=10: PASS\n"),
            (("polynomial", "--k", "2", "--l", "2", "--a", "1", "--b", "0"), "polynomial k=2 l=2 a=1 b=0 N=6: PASS\n"),
            (("init", "--k", "2", "--l", "2", "--a", "1", "--b", "0"), "init-image k=2 l=2 a=1 b=0 N=6 size=34: PASS\n"),
            (
                ("init", "--k", "2", "--l", "2"),
                "init-image k=2 l=2 a=0 b=0 N=6 size=40: PASS\n"
                "init-image k=2 l=2 a=0 b=1 N=6 size=26: PASS\n"
                "init-image k=2 l=2 a=0 b=2 N=6 size=10: PASS\n"
                "init-image k=2 l=2 a=1 b=0 N=6 size=34: PASS\n"
                "init-image k=2 l=2 a=1 b=1 N=6 size=17: PASS\n"
                "init-image k=2 l=2 a=2 b=0 N=6 size=20: PASS\n"
                "init-cover k=2 l=2 N=6 pairs=6: PASS\n",
            ),
            (("boundary", "--k", "2", "--l", "2", "--N", "3"), "boundary k=2 l=2 N=3 configurations=147: PASS\n"),
            (("boundary", "--k", "2", "--l", "2"), "boundary k=2 l=2 N=6 configurations=1077: PASS\n"),
            (("recursion", "--k", "2", "--l", "2"), "recursion l=2 k=2 N=4 universe=40: PASS\n"),
            (("shift", "--k", "3", "--l", "2"), "shift k=3 l=2 samples=21: PASS\n"),
        ],
    )
    def test_text(self, capsys, argv, out):
        assert run(capsys, "verify", *argv) == (0, out, "")

    @pytest.mark.parametrize(
        "argv, out",
        [
            (
                ("init", "--k", "2", "--l", "2", "--a", "1", "--b", "0"),
                '[{"name": "init-image", "parameters": {"k": 2, "l": 2, "a": 1, "b": 0, "N": 6, "size": 34}, '
                '"passed": true, "lhs": null, "rhs": null, "first_mismatch": null}]\n',
            ),
            (
                ("recursion", "--k", "2", "--l", "2", "--N", "3"),
                '[{"name": "recursion", "parameters": {"l": 2, "k": 2, "N": 3, "universe": 20}, '
                '"passed": true, "lhs": null, "rhs": null, "first_mismatch": null}]\n',
            ),
            (
                ("shift", "--k", "3", "--l", "2", "--width", "4"),
                '[{"name": "shift", "parameters": {"k": 3, "l": 2, "samples": 8}, '
                '"passed": true, "lhs": null, "rhs": null, "first_mismatch": null}]\n',
            ),
        ],
    )
    def test_json(self, capsys, argv, out):
        assert run(capsys, "verify", *argv, "--json") == (0, out, "")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("polynomial", "--k", "2"), "--l"),
            (("polynomial", "--k", "2", "--l", "2", "--b", "0"), "--a"),
            (("polynomial", "--k", "2", "--l", "2", "--a", "0"), "--b"),
            (("init", "--k", "2", "--a", "1"), "--l"),
            (("init", "--k", "2", "--l", "2", "--a", "1"), "--b"),
            (("init", "--k", "2", "--l", "2", "--b", "1"), "--a"),
            (("boundary", "--k", "2"), "--l"),
            (("recursion", "--k", "2"), "--l"),
            (("shift", "--k", "3"), "--l"),
        ],
    )
    def test_missing_required_flag(self, capsys, argv, flag):
        assert run(capsys, "verify", *argv) == (2, "", f"error: missing required flag {flag}\n")

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (("roundtrip", "--k", "2", "--l", "1"), "--l"),
            (("gordon", "--k", "2", "--l", "5", "--a", "9", "--width", "3", "--max-degree", "4"), "--l, --a, --width"),
            (("gordon-r2", "--k", "2", "--N", "3"), "--N"),
            (("polynomial", "--k", "2", "--l", "2", "--a", "1", "--b", "0", "--max-degree", "4"), "--max-degree"),
            (("init", "--k", "2", "--l", "2", "--width", "3"), "--width"),
            (("boundary", "--k", "2", "--l", "2", "--a", "0"), "--a"),
            (("recursion", "--k", "2", "--l", "2", "--b", "1"), "--b"),
            (("shift", "--k", "3", "--l", "2", "--N", "99", "--width", "3"), "--N"),
            (("golden", "--k", "7", "--N", "2"), "--k, --N"),
            (("all", "--l", "1"), "--l"),
        ],
    )
    def test_unread_flag_rejected(self, capsys, argv, unread):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: verify {argv[0]} does not read {unread}\n")

    def test_fail_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(identities, "right_move", lambda a, k, l: a)
        code, out, err = run(capsys, "verify", "golden")
        assert (code, err) == (1, "")
        assert out.startswith("golden : FAIL (move chain diverges: ")

    def test_module_entry_point(self):
        src = str(Path(rigged.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "rigged.cli", "verify", "golden"], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "golden : PASS\n", "")


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
part_dicts = st.fixed_dictionaries({"weight": json_scalars, "rigging": json_scalars})
partition_texts = (
    st.text(max_size=40)
    | json_values.map(json.dumps)
    | st.lists(part_dicts | json_values, max_size=4).map(lambda parts: json.dumps({"parts": parts}))
)
config_texts = st.text(max_size=40) | st.lists(st.integers(-3, 9), max_size=6).map(
    lambda xs: ",".join(map(str, xs))
) | st.tuples(st.integers(-50, 50), st.text("0123456789,-: ", max_size=12)).map(lambda p: f"{p[0]}:{p[1]}")


class TestParserFuzz:
    """Every input either parses or raises ValueError, which the CLI turns into exit 2."""

    @given(config_texts)
    @settings(max_examples=200, deadline=None)
    def test_config(self, text):
        try:
            cfg = _parse_config(text)
        except ValueError:
            return
        assert isinstance(cfg, Configuration) and all(type(c) is int and c >= 0 for c in cfg.counts)

    @given(partition_texts)
    @settings(max_examples=300, deadline=None)
    def test_partition(self, text):
        try:
            rp = _parse_partition(text)
        except ValueError:
            return
        assert isinstance(rp, RiggedPartition)
        # Whatever parses is exactly what the JSON says: integers, never
        # truncated floats or booleans read as 1.
        parts = json.loads(text).get("parts", [])
        assert all(type(p["weight"]) is int and type(p["rigging"]) is int for p in parts)
        assert rp.parts == tuple((p["weight"], p["rigging"]) for p in parts)
