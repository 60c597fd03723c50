"""Golden outputs: stdout sha256 and exit code for fixed CLI invocations,
and one sha256 over the library's certificates for a whole input box.

Any change to a byte of these outputs, or to an exit code, fails here;
re-pin only for a deliberate change of output.  The module also runs without
pytest, under any supported Python: ``PYTHONPATH=src python
tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json

try:
    import pytest
except ImportError:  # run standalone, by the __main__ block below
    pytest = None

from rigidcurves import CicyType, certify
from rigidcurves.cli import main

GOLDEN = [
    (
        ["enumerate", "--type", "5", "--d-max", "20", "--g-max", "6",
         "--format", "json"],
        0,
        "a7f89bd82b8441b003eb6972f3dc21bbd33b0e4a65236f292b9dd76d3cc59d12",
    ),
    (
        ["enumerate", "--type", "4,2", "--d-max", "20", "--g-max", "6",
         "--format", "json"],
        0,
        "c39f3d0fb61a3b90a52c30e4a0ecc0e3c88d1f36f22cb008d3185b3607210c4b",
    ),
    (
        ["enumerate", "--type", "3,3", "--d-max", "20", "--g-max", "6",
         "--format", "json"],
        0,
        "81366832b75d1cd2eb433c5652a8eaac26fda21dd3e9fd74821db2b0e8a66633",
    ),
    (
        ["enumerate", "--type", "3,2,2", "--d-max", "20", "--g-max", "6",
         "--format", "json"],
        0,
        "6ef4d12854a66e7668ebb9d69a79e6223965e18c469ee3744b853168cf2b83e9",
    ),
    (
        ["enumerate", "--type", "2,2,2,2", "--d-max", "20", "--g-max", "6",
         "--format", "json"],
        0,
        "6b3495118d686d284b85d3b248d914dc8900e0f37cb3bcce637da4ffedc5c897",
    ),
    (
        ["table", "--verify", "--format", "json"],
        3,
        "b2d8ccdc88829bfd4916a6b0cec9e50d4619fe48445b6be3dce0909fa4396278",
    ),
    (
        ["table", "--verify", "--format", "csv"],
        3,
        "af3b4cc4b2e5f6f0812494de53cb5b6d2f7bdc2c2aafd7b1cc501e8baf178e1f",
    ),
    (
        ["certify", "--type", "3,3", "--d", "3", "--g", "1"],
        0,
        "ed3d49c9f6271f6529716f288902a024373dd684296a422b6cbde8d0c8d8290c",
    ),
    (
        ["certify", "--type", "2,2,2,2", "--d", "14", "--g", "8"],
        1,
        "26d144e4cb1bc7773fb2b38701dbf9704624564f583b5779b11065c507028d68",
    ),
    (
        ["count", "--n", "36", "--ell", "17"],
        0,
        "6279d14e640d756f78cdc302365b3890942288d5f44614641ef72d3a62269b6d",
    ),
    (
        ["enumerate", "--type", "5", "--d-max", "0", "--g-max", "0"],
        0,
        "8efd58c45767f8605c08491cc1a930cad687c3bc7507495ee1f875decd5ae83d",
    ),
    (
        ["table", "--format", "json"],
        0,
        "9d8774c01fd44bf1060c6aa5aa53e938a7652938a63d5b82e883aabe38aa0a17",
    ),
    (
        ["enumerate", "--type", "4,2", "--d-max", "40", "--g-max", "8",
         "--format", "json"],
        0,
        "bdcb4bd696d261b3a60c669e42c373bbca6eb3b15f7c985935769208e861f30d",
    ),
    (
        ["table", "--format", "csv"],
        0,
        "eb0995b3d245e60e5c9e0b7c073f66725fb23cc4c1337992b1417b616198f15e",
    ),
    (
        ["table", "--format", "markdown"],
        0,
        "816007e8dad744135de3c82f411c2c1394da1660ed0f6dd69ad7aa07ba6b1b9a",
    ),
    (
        ["table", "--verify", "--format", "markdown"],
        3,
        "5b4bb78b2741a4af153ac13495fa9f19b238853cdcf3b1a2f1fba0a7ca4d5803",
    ),
    (
        ["enumerate", "--type", "3,3", "--d-max", "8", "--g-max", "3",
         "--format", "markdown"],
        0,
        "569ae9d88c4b864e2ceb3709793e2c8444dc045e5a909d902109790ce5ea76a1",
    ),
    (
        # includes the g = 7, 8 stated-derived disagreement rows
        ["enumerate", "--type", "2,2,2,2", "--d-max", "40", "--g-max", "8",
         "--format", "csv"],
        0,
        "206aea58590deb0e17c463aa87ca2cd2ea0b5ef7644a8512edfe63fc7bf75a4a",
    ),
    (
        # header only
        ["enumerate", "--type", "5", "--d-max", "0", "--g-max", "0",
         "--format", "csv"],
        0,
        "02fab886877d73812bda41450bb16893d19d621fdf5a747ec5fec2c454c0e24f",
    ),
    (
        # out-of-range: degree 1 below the supported floor 2g-3 = 7
        ["certify", "--type", "5", "--d", "1", "--g", "5"],
        1,
        "8e454b0d65ff2937f392b047bc42e9647dc97962a8b168fa4053c732552ee825",
    ),
    (
        # out-of-range: degree must be positive, got 0
        ["certify", "--type", "2,2,2,2", "--d", "0", "--g", "0"],
        1,
        "ef10f9a5e79d23fd32625e12baaf42cfd98dff7c7515a29929f18f6e89417ddc",
    ),
    (
        # the derived verdict changes inside a genus (the g = 7, 8 rays)
        ["enumerate", "--type", "2,2,2,2", "--d-max", "60", "--g-max", "12",
         "--format", "json"],
        0,
        "2c3c3c0c90b6b0b9779588cb0f0686502d09fca31eb842b67b7d8d88da5842f6",
    ),
    (
        # the derived verdict changes inside a genus ((9,5), (10,6), (11,7))
        ["enumerate", "--type", "3,2,2", "--d-max", "30", "--g-max", "12",
         "--format", "json"],
        0,
        "6dc77fdac39c69e5b0c3a9980fa276dca25ca0a8515593c80636f04ac1d5c26c",
    ),
    (
        # many derived rows that change, and repeat, inside each genus
        ["enumerate", "--type", "4,2", "--d-max", "60", "--g-max", "20",
         "--format", "json"],
        0,
        "751dd4fdb5e510546ae58608abbb638829b37f1ed5752c56098fafa552d61a12",
    ),
    (
        ["enumerate", "--type", "5", "--d-max", "60", "--g-max", "20",
         "--format", "json"],
        0,
        "8b57ba69c3ef3512119236db735983d11f51a30860d3dbafbebd886786b9ba09",
    ),
    (
        # the exceptional-pair clause and the node-table-discrepancy warning
        ["enumerate", "--type", "3,3", "--d-max", "60", "--g-max", "20",
         "--format", "json"],
        0,
        "f02ef9137a7f7dd033c86a7983c9d39f80b79dd06691c14e650ac59d97007689",
    ),
    (
        ["enumerate", "--type", "3,2,2", "--d-max", "60", "--g-max", "20",
         "--format", "json"],
        0,
        "48c8349ce68c64a2dbc49f24136217c2323f44ce08cc12bd16d8e9ced71d85bc",
    ),
]


def test_golden_output(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


if pytest is not None:
    test_golden_output = pytest.mark.parametrize(
        "argv, code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN]
    )(test_golden_output)


# every family, -3 <= d < 45, -3 <= g < 25: out-of-range verdicts included
LIBRARY_DIGEST = (
    "abcc72999ec97476bd8c83a066f7c05b13b7a458b430eb5f667a10ee8913ed22"
)


def test_golden_library_certificates():
    digest = hashlib.sha256()
    for cicy in CicyType:
        for d in range(-3, 45):
            for g in range(-3, 25):
                document = certify(cicy, d, g).to_dict()
                digest.update(json.dumps(document).encode())
    assert digest.hexdigest() == LIBRARY_DIGEST


if __name__ == "__main__":
    checks = [(" ".join(case[0]), lambda case=case: test_golden_output(*case))
              for case in GOLDEN]
    checks.append(("library certificates", test_golden_library_certificates))
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # keep going; report everything
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__} {exc}")
    print(f"{len(checks) - failures} of {len(checks)} golden checks match")
    raise SystemExit(1 if failures else 0)
