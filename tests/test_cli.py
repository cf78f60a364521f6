import pytest

from lbmlab.cli import EXIT_CONFIG, EXIT_OK, main

SMALL_VERIFY = """\
[study]
resolutions = 16,32,64,128
coarse_steps = 20
viscosity_s = 1.5
viscosity_n = 32
horizon_decay_times = 1.2
"""

STUDY_FILES = {
    "prop3": {"prop3.csv"},
    "prop4": {"prop4.csv"},
    "prop5": {"prop5.csv"},
    "prop6": {"prop6.csv", "mass.csv"},
    "viscosity": {"viscosity.csv"},
    "all": {"prop3.csv", "prop4.csv", "prop5.csv", "prop6.csv", "mass.csv",
            "viscosity.csv"},
}


def _cli(tmp_path, command, config_text, *extra):
    config = tmp_path / "run.ini"
    config.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(config), "--out", str(out), "--quiet",
                 *extra]), out


@pytest.mark.parametrize("section, key, value", [
    ("scheme", "lambda", "nan"),
    ("grid", "length", "inf"),
    ("scheme", "s", "1.5, -inf"),
])
def test_non_finite_value_is_config_error(tmp_path, capsys, section, key, value):
    code, out = _cli(tmp_path, "run", f"[{section}]\n{key} = {value}\n")
    assert code == EXIT_CONFIG
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (out / "checkpoint.csv").exists()


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("verify-all")
    code, out = _cli(tmp_path, "verify", SMALL_VERIFY, "--study", "all")
    return code, out


@pytest.mark.parametrize("study", sorted(STUDY_FILES))
def test_verify_writes_exactly_its_csvs(tmp_path, verify_all, study):
    if study == "all":
        code, out = verify_all
    else:
        code, out = _cli(tmp_path, "verify", SMALL_VERIFY, "--study", study)
    assert code == EXIT_OK
    assert {p.name for p in out.iterdir()} == STUDY_FILES[study] | {"summary.csv"}
    for name in STUDY_FILES[study]:
        # a single study reports exactly what the same study reports in 'all'
        assert (out / name).read_bytes() == (verify_all[1] / name).read_bytes()


@pytest.mark.parametrize("study", ["viscosity", "all"])
def test_viscometry_on_a_1d_lattice_is_config_error(tmp_path, capsys, study):
    code, _ = _cli(tmp_path, "verify", "[lattice]\nname = d1q3\n" + SMALL_VERIFY,
                   "--study", study)
    assert code == EXIT_CONFIG
    assert "2-D lattice" in capsys.readouterr().err
