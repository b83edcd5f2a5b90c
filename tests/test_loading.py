"""What a cold run loads: each check runs in a fresh interpreter.

`import lstirling` and `import lstirling.cli` load no layer module; each CLI
command loads its own command module, the output helpers and the layers it
uses when it runs, and the package root resolves each public name from its
layer on first use.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lstirling

SRC = str(Path(lstirling.__file__).resolve().parents[1])
FIXTURES = Path(__file__).parent / "fixtures"

PRELUDE = """
import contextlib, io, json, sys

before = set(sys.modules)


def added():
    return sorted(set(sys.modules) - before)


def run(*argv):
    from lstirling.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
"""


def child(body: str, prelude: str = PRELUDE):
    """Run prelude + body in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", prelude + body], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_layer_and_a_table_loads_two():
    got = child(
        """
import lstirling.cli
on_import = added()
before = set(sys.modules)
run("table", "--family", "ls", "--nmax", "3")
print(json.dumps({"import": on_import, "table": added()}))
"""
    )
    assert [m for m in got["import"] if m.startswith("lstirling")] == ["lstirling", "lstirling.cli"]
    assert "dataclasses" not in got["import"] and "csv" not in got["import"]
    assert [m for m in got["table"] if m.startswith("lstirling")] == [
        "lstirling.algebra",
        "lstirling.cli_output",
        "lstirling.cli_table",
        "lstirling.triangles",
    ]


@pytest.mark.parametrize(
    "argv, module",
    [
        (("table", "--family", "jc", "--nmax", "3"), "cli_table"),
        (("verify", "identities", "--nmax", "3"), "cli_verify"),
        (("verify", "bijection", "--nmax", "3"), "cli_verify"),
        (("gamma", "--kmax", "3"), "cli_gamma"),
        (("conjecture", "--kmax", "2"), "cli_certs"),
        (("oeis", "A025035", "--source", str(FIXTURES / "b025035.txt")), "cli_oeis"),
    ],
    ids=["table", "verify-identities", "verify-bijection", "gamma", "conjecture", "oeis"],
)
def test_each_command_loads_its_own_module_and_no_other_commands(argv, module):
    got = child(f"run(*{argv!r})\nprint(json.dumps(added()))")
    # the command modules are cli_*, beside the helpers in cli_output
    assert "lstirling.cli_output" in got
    assert [m for m in got if m.startswith("lstirling.cli_") and m != "lstirling.cli_output"] == [f"lstirling.{module}"]


def test_running_the_cli_as_a_module_imports_it_once(tmp_path):
    # under -m the entry module runs as __main__; a command module that
    # imported lstirling.cli would compile and run a second copy of it.  A
    # sitecustomize prints the loaded package modules when the child exits.
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('lstirling'))\n"
        "atexit.register(lambda: print(*loaded(), file=sys.stderr))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "lstirling.cli", "table", "--family", "ls", "--nmax", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["n,k,value", "0,0,1", "1,0,0"]
    assert proc.stderr.split() == [
        "lstirling",
        "lstirling.algebra",
        "lstirling.cli_output",
        "lstirling.cli_table",
        "lstirling.triangles",
    ]


def test_light_commands_never_import_dataclasses_or_csv():
    got = child(
        f"""
run("table", "--family", "js", "--nmax", "4")
run("gamma", "--kmax", "4")
run("oeis", "A025035", "--source", {str(FIXTURES / "b025035.txt")!r})
run("verify", "identities", "--nmax", "3")
run("verify", "grammar", "--nmax", "3")
print(json.dumps(added()))
"""
    )
    assert "dataclasses" not in got and "csv" not in got
    assert "lstirling.gamma" in got and "lstirling.grammar" in got


def test_tables_and_grammar_never_import_fractions():
    # their cells and coefficients are ints, and gamma checks its closed forms
    # in ints, so no Fraction is ever built or met
    got = child(
        f"""
run("table", "--family", "ls", "--nmax", "6")
run("table", "--family", "jc", "--nmax", "6", "--format", "json")
run("verify", "grammar", "--nmax", "4")
run("gamma", "--kmax", "20")
run("oeis", "A025035", "--source", {str(FIXTURES / "b025035.txt")!r})
run("oeis", "A006472", "--source", {str(FIXTURES / "b006472.txt")!r})
print(json.dumps(added()))
"""
    )
    assert "lstirling.algebra" in got and "lstirling.grammar" in got and "lstirling.gamma" in got
    for module in ("fractions", "decimal", "numbers"):
        assert module not in got


def test_a_json_table_never_imports_json():
    # the table writes its JSON text itself; PRELUDE imports json, so this
    # child starts bare and prints its verdict as a JSON literal
    got = child(
        """
from lstirling.cli import main

for family in ("ls", "js"):
    assert main(["table", "--family", family, "--nmax", "6", "--format", "json", "--out", os.devnull]) == 0
print(str("json" in sys.modules).lower())
""",
        prelude="import os, sys\n",
    )
    assert got is False


def test_enumeration_sweeps_never_import_dataclasses():
    got = child(
        """
run("verify", "bijection", "--nmax", "3")
run("verify", "zstat", "--nmax", "3")
print(json.dumps(added()))
"""
    )
    assert "lstirling.codes" in got and "lstirling.partitions" in got
    assert "dataclasses" not in got


def test_conjecture_loads_no_enumeration_layer():
    got = child(
        """
run("conjecture", "--kmax", "2")
print(json.dumps(added()))
"""
    )
    assert "lstirling.realroots" in got
    # the check vocabulary lives in the package root, so no triangle layer either
    for layer in ("codes", "partitions", "grammar", "certcheck", "triangles"):
        assert f"lstirling.{layer}" not in got
    assert "dataclasses" not in got
    # the induction's endpoints are int pairs, so no Fraction is built or met
    for module in ("fractions", "decimal", "numbers"):
        assert module not in got


def test_check_certs_loads_only_the_checker(tmp_path):
    # the checker trusts none of the code that made the certificates
    certs = tmp_path / "certs.jsonl"
    child(f"""run("conjecture", "--kmax", "3", "--out", {str(certs)!r})\nprint("{{}}")""")
    got = child(
        f"""
run("check-certs", {str(certs)!r})
print(json.dumps(added()))
"""
    )
    assert [m for m in got if m.startswith("lstirling")] == [
        "lstirling",
        "lstirling.certcheck",
        "lstirling.cli",
        "lstirling.cli_certs",
        "lstirling.cli_output",
    ]
    assert "dataclasses" not in got


def test_package_names_resolve_to_their_layer_objects():
    got = child(
        """
import lstirling

layers = ("algebra", "codes", "gamma", "grammar", "partitions", "realroots", "triangles")
problems = [m for m in added() if m.startswith("lstirling.")]
for name in lstirling.__all__:
    value = getattr(lstirling, name)
    home = getattr(value, "__module__", None)
    if callable(value) and home:
        same = getattr(sys.modules[home], name, None) is value
    else:
        same = any(vars(sys.modules.get(f"lstirling.{m}", sys)).get(name) is value for m in layers)
    if not same:
        problems.append(f"{name} is not its layer's object")
    if name not in dir(lstirling):
        problems.append(f"dir() lacks {name}")
star = {}
exec("from lstirling import *", star)
problems += [f"* misses {name}" for name in lstirling.__all__ if star.get(name) is not getattr(lstirling, name)]
problems += [f"dir() lacks module {m}" for m in layers if m not in dir(lstirling)]
# all but the first are names the package used to export
gone_names = (
    "no_such_name NEG_INF derive_seq Series horizontal_identity_ls horizontal_identity_js jc_defining_product"
    " vertical_gf_check check_stirling1 check_stirling2 check_js_grammar check_jc_grammar gamma_poly_via_ode"
    " verify_conjecture binomial falling_basis n_x binomial_poly from_json_dict ls_vertical"
)
for gone in gone_names.split():
    try:
        getattr(lstirling, gone)
        problems.append(f"no AttributeError for {gone}")
    except AttributeError:
        pass
print(json.dumps({"problems": problems, "names": len(lstirling.__all__), "unique": len(set(lstirling.__all__))}))
"""
    )
    assert got["problems"] == []
    assert got["names"] == got["unique"] == 51


def test_phi_loads_its_layers_and_no_other():
    got = child(
        """
import lstirling

lstirling.phi
print(json.dumps(added()))
"""
    )
    assert [m for m in got if m.startswith("lstirling")] == [
        "lstirling",
        "lstirling.algebra",
        "lstirling.codes",
        "lstirling.partitions",
    ]


def test_a_layer_module_is_reachable_from_the_package_root():
    got = child(
        """
import lstirling

phi = lstirling.codes.phi
print(json.dumps({"same": phi is lstirling.phi, "codes": "lstirling.codes" in sys.modules}))
"""
    )
    assert got == {"same": True, "codes": True}
