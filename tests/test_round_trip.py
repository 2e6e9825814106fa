"""The CLI round trip of the README quick start, in a temporary directory.

These are the commands, files, exit codes, output lines, sha256 pins and
the absent-file check of the round trip that CI used to run as bash, in
the same order.  Each command runs in-process through ``cli.main``; the
module entry point (``python -m rigidity_forge.cli``) and the usage error
of an overlong exponent each run in a subprocess, the latter under a
10 s timeout.  New pins of the command line go here.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from rigidity_forge import cli, codec, models, scalars

SRC = Path(__file__).resolve().parents[1] / "src"


def _python_cli(*args, timeout=None):
    """``python -m rigidity_forge.cli *args`` in the working directory."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "rigidity_forge.cli", *args], env=env, capture_output=True, text=True, timeout=timeout)


def _sha256(name: str) -> str:
    return hashlib.sha256(Path(name).read_bytes()).hexdigest()


def _rewrite(source: str, target: str, edit) -> None:
    """``target`` as ``source`` with ``edit`` applied to its JSON document."""
    document = json.loads(Path(source).read_text())
    edit(document)
    Path(target).write_text(json.dumps(document, indent=2))


def test_the_cli_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def run(command: str, code: int = 0) -> tuple[list[str], list[str]]:
        """``command``, split on spaces as the shell splits its words, through
        ``cli.main``: it must exit with ``code``; its stdout and stderr lines."""
        capsys.readouterr()
        assert cli.main(command.split()) == code, command
        out = capsys.readouterr()
        return out.out.splitlines(), out.err.splitlines()

    def model_check(derivation: str, model: str, pairs: int) -> None:
        """model-check's two stdout lines: the derivation's verdict and the
        certificate pairs preserved."""
        out, _ = run(f"model-check {derivation} --model {model}")
        assert "derivation: all-true" in out
        assert f"preservation: ok ({pairs} certificate pairs)" in out

    assert _python_cli("gadget", "division", "--t", "1/2", "-o", "division.json").returncode == 0
    # the command line reads a rational as files do: an exponent is a usage error, read in no time
    assert _python_cli("gadget", "division", "--t", "1e999999999", timeout=10).returncode == 2
    # the README quick-start commands no other line runs, each required to exit 0
    run("identities")
    run("model-check division.json --model conj:0")
    # a perpendicularity transfer whose X coincides with P
    run("gadget perp --p 0,0 --q 0,12/5 --x 0,0 --y 4,0 -o perp-readme.json")
    run("verify division.json")
    run("replay division.json -o division-derivation.json")
    run("verify division-derivation.json")
    run("model-check division-derivation.json --model eps-rotation")

    # a wrong certificate value: the exact check computes the distance only to report it
    def wrong_d2(document):
        document["gadget"]["certificate"][0]["d2"] = "5"

    _rewrite("division-derivation.json", "division-wrong-d2.json", wrong_d2)
    for command in ("verify division-wrong-d2.json", "model-check division-wrong-d2.json --model eps-rotation"):
        _, err = run(command, 1)
        assert "InvalidGadget: certificate mismatch for (A,E): stored 5, got 1/4" in err

    # a bridge over Q(sqrt(7/4)): fractional tower coordinates and multi-step span closures
    run("gadget bridge --a 0,0 --b 3,0 --c 1,1 --d 4,1 -o bridge.json")
    run("replay bridge.json -o bridge-derivation.json")
    run("verify bridge-derivation.json")
    run("model-check bridge-derivation.json --model conj:0")
    # the rational-frame and K(eps)-reflection image kernels
    run("model-check bridge-derivation.json --model conj-rot:0")
    run("model-check bridge-derivation.json --model eps-reflection")

    # a wrong certificate value in a gadget file over a tower: the stored value is
    # compared on the integer form, and the reported distance is built by the formula
    def bridge_wrong_d2(document):
        assert document["certificate"][0] == {"p": "A0", "q": "E0", "d2": "4"}
        document["certificate"][0]["d2"] = "5"

    _rewrite("bridge.json", "bridge-wrong-d2.json", bridge_wrong_d2)
    for command, error in (
        ("verify bridge-wrong-d2.json", "InvalidGadget"),
        ("replay bridge-wrong-d2.json -o bridge-wrong-d2-derivation.json", "InconsistentCertificate"),
        ("model-check bridge-wrong-d2.json --model eps-rotation", "InconsistentCertificate"),
    ):
        _, err = run(command, 1)
        assert f"{error}: certificate mismatch for (A0,E0): stored 5, got 4" in err
    assert not Path("bridge-wrong-d2-derivation.json").exists()

    # a model descriptor whose frame has sqrt(2) entries: the generic OrthoAffine.apply
    # formula, over a join of the frame's tower and the gadget's
    r2 = scalars.adjoin_sqrt(scalars.QQ, 2)
    frame = models.make_pythagorean_rotation(1 + r2.root, translation=(r2.root, r2.tower.rational(3)))
    model = models.ModelMap(models.Embedding("identity"), frame)
    Path("model.json").write_text(codec.dumps(codec.encode_model(model)))
    run("model-check division-derivation.json --model @model.json")
    run("model-check bridge-derivation.json --model @model.json")

    run("gadget perp --p 0,0 --q 1,0 --x 0,0 --y 0,1 -o perp.json")
    run("replay perp.json -o perp-derivation.json")
    for model_name in ("conj:0", "conj-rot:0", "eps-rotation"):
        model_check("perp-derivation.json", model_name, 44)
    # the negative-ratio perp (its scale through a mirror point), pinned byte for byte
    assert _sha256("perp.json") == "c5c15414004801e772f4b7f72931c23eabb0f9af7c613806ec259ea9105a5854"
    assert _sha256("perp-derivation.json") == "e2eaa2688caae9a0f57c15c075709d0d6d790a135e3df04934198df206b65797"
    # a perp over Q that reaches depth 4 through joins of towers neither of which
    # is a prefix of the other, pinned byte for byte
    run("gadget perp --p 1,1 --q 1,4 --x 0,0 --y 3,0 -o perp4.json")
    run("replay perp4.json -o perp4-derivation.json")
    run("verify perp4-derivation.json")
    for generator in range(4):
        model_check("perp4-derivation.json", f"conj:{generator}", 48)
    assert _sha256("perp4.json") == "cfdda6e5b8a038ab8ad5e68f571c07f494da9167da97c9a55e6f13d0aa15f58d"
    assert _sha256("perp4-derivation.json") == "7774051dd9aa6cf104a4131426a96db967ba1d926cd3534f1a9a7f955103e9fb"

    run("gadget kempe --t 2 -o kempe.json")
    model_check("kempe.json", "eps-reflection", 8)
    run("gadget chain --a 0,0 --b 5,0 --c 0,1 --d 5,1 -o chain.json")
    model_check("chain.json", "eps-rotation", 19)
    # a chain over Q (field {"gens": []}): every report decides its facts on the rational point table
    run("gadget chain --a 0,0 --b 10,0 --c 0,1 --d 10,1 -o q-chain.json")
    assert '    "gens": []' in Path("q-chain.json").read_text().splitlines()
    run("replay q-chain.json -o q-chain-derivation.json")
    run("verify q-chain-derivation.json")
    for model_name in ("identity", "eps-rotation"):
        model_check("q-chain-derivation.json", model_name, 31)

    def q_chain_wrong_d2(document):
        assert document["gadget"]["certificate"][0] == {"p": "A0", "q": "C0", "d2": "1"}
        document["gadget"]["certificate"][0]["d2"] = "5"

    _rewrite("q-chain-derivation.json", "q-chain-wrong-d2.json", q_chain_wrong_d2)
    for command in ("verify q-chain-wrong-d2.json", "model-check q-chain-wrong-d2.json --model identity"):
        _, err = run(command, 1)
        assert "InvalidGadget: certificate mismatch for (A0,C0): stored 5, got 1" in err


def test_model_check_under_descriptor_models(tmp_path, monkeypatch, capsys):
    """model-check of the division, bridge and Kempe files under four
    descriptor models, pinned by exit code, stdout and stderr: a K(eps)
    frame with a rational translation and one with entries over Q(sqrt 2),
    which have no integer rows, so their images take the formula; and the
    inclusion into K(eps) with a rational frame and with none, whose images
    are K's own values, on the tower kernels."""
    monkeypatch.chdir(tmp_path)

    def run(command: str) -> tuple[int, str, str]:
        capsys.readouterr()
        code = cli.main(command.split())
        out = capsys.readouterr()
        return code, out.out, out.err

    for command in (
        "gadget division --t 1/2 -o division.json",
        "replay division.json -o division-derivation.json",
        "gadget bridge --a 0,0 --b 3,0 --c 1,1 --d 4,1 -o bridge.json",
        "replay bridge.json -o bridge-derivation.json",
        "gadget kempe --t 2 -o kempe.json",
    ):
        assert run(command)[0] == 0, command
    eps, r2 = scalars.FunElem.eps(), scalars.adjoin_sqrt(scalars.QQ, 2)
    inclusion = models.Embedding("function_field")
    descriptors = {
        "eps-translated": models.ModelMap(inclusion, models.make_pythagorean_rotation(eps, translation=(Fraction(1, 2), Fraction(-3)))),
        "eps-sqrt2": models.ModelMap(inclusion, models.make_pythagorean_rotation(scalars.FunElem.eps(r2.tower) + r2.root)),
        "inclusion-rational": models.ModelMap(inclusion, models.make_pythagorean_rotation(Fraction(1, 2), translation=(Fraction(1), Fraction(-2)))),
        "inclusion": models.ModelMap(inclusion),
    }
    for name, model in descriptors.items():
        Path(f"{name}.json").write_text(codec.dumps(codec.encode_model(model)))
        frame = codec.decode_document(Path(f"{name}.json").read_text()).frame
        assert (frame is None, frame is not None and frame._kernel is not None) == {"inclusion": (True, False), "inclusion-rational": (False, True)}.get(name, (False, False)), name
    pairs = {"division-derivation.json": 8, "bridge-derivation.json": 12, "kempe.json": 8}
    for name in descriptors:
        for document, count in pairs.items():
            expected = (0, f"derivation: all-true\npreservation: ok ({count} certificate pairs)\n", "")
            assert run(f"model-check {document} --model @{name}.json") == expected, (document, name)
