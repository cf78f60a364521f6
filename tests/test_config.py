import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbmlab.config import _KEYS, STUDY_NAMES, RunConfig, config_text, parse_config
from lbmlab.errors import ConfigError
from lbmlab.lattice import D1Q3_DIRECTIONS, D2Q9_DIRECTIONS

# the built-in lattices' names, in either case, and their vectors
LATTICES = {"d2q9": D2Q9_DIRECTIONS, "d1q3": D1Q3_DIRECTIONS}
names = st.sampled_from([*LATTICES, *map(str.upper, LATTICES)])
ints = st.integers(-10**6, 10**6)
floats = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)


def _render(value):
    if isinstance(value, list):
        sep = "; " if value and isinstance(value[0], list) else ","
        return sep.join(_render(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# Raw values for every key except [scheme] lambda and [grid] nx, which the
# strategy below always sets.  cs2 and the [study] values are drawn from their
# valid ranges: a config is validated as a whole.
KEY_VALUES = {
    ("lattice", "name"): names,
    ("lattice", "vectors"): st.lists(st.lists(ints, min_size=1, max_size=3),
                                     min_size=1, max_size=4),
    ("lattice", "higher_rows"): st.lists(st.lists(floats, min_size=1, max_size=3),
                                         min_size=1, max_size=3),
    ("equilibrium", "cs2"): positive,
    ("equilibrium", "weights"): st.lists(floats, min_size=1, max_size=9),
    ("scheme", "s"): st.lists(floats, min_size=1, max_size=6),
    ("scheme", "steps"): st.integers(0, 10**6),
    ("initial", "rho0"): floats,
    ("initial", "rho_amplitude"): floats,
    ("initial", "ux_offset"): floats,
    ("initial", "ux_amplitude"): floats,
    ("initial", "uy_offset"): floats,
    ("initial", "uy_amplitude"): floats,
    ("study", "name"): st.sampled_from([*STUDY_NAMES, *map(str.upper, STUDY_NAMES)]),
    ("study", "resolutions"): st.builds(lambda n, k: [n * 2**i for i in range(k)],
                                        st.integers(8, 10**4), st.integers(4, 6)),
    ("study", "coarse_steps"): st.integers(20, 10**6),
    ("study", "viscosity_s"): st.lists(st.floats(0.0, 2.0, exclude_min=True),
                                       min_size=1, max_size=4),
    ("study", "viscosity_n"): st.integers(8, 10**6),
}


@st.composite
def config_texts(draw):
    """Config text over a random subset of keys that parse_config accepts."""
    chosen = draw(st.sets(st.sampled_from(sorted(KEY_VALUES))))
    values = {key: draw(KEY_VALUES[key]) for key in chosen}
    if ("lattice", "name") in values and ("lattice", "vectors") in values:
        # a name beside vectors must name them
        vectors = LATTICES[values["lattice", "name"].lower()]
        values["lattice", "vectors"] = [list(vector) for vector in vectors]
    values[("scheme", "lambda")] = draw(positive)
    values[("grid", "nx")] = draw(st.integers(1, 10**4))
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {_render(value)}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


@given(config_texts())
def test_config_text_round_trip(text):
    cfg = parse_config(text)
    canonical = config_text(cfg)
    assert parse_config(canonical) == cfg
    assert config_text(parse_config(canonical)) == canonical


def test_every_field_has_exactly_one_key():
    # a field without a key would keep its default through any round trip
    fields = [field for _, _, field, _ in _KEYS]
    assert len(fields) == len(set(fields))
    assert set(fields) == {f.name for f in dataclasses.fields(RunConfig)}


def test_round_trip_keeps_lattice_name_beside_vectors():
    cfg = parse_config("[lattice]\nname = d1q3\nvectors = 0;1;-1\n")
    assert cfg.lattice_name == "d1q3" and cfg.vectors == ((0,), (1,), (-1,))
    assert parse_config(config_text(cfg)) == cfg


@pytest.mark.parametrize("fields", [
    {"lattice_name": "nonsense"},
    {"lattice_name": "d3q27", "vectors": ((0,), (1,), (-1,))},
    # the name of other vectors, or of the same ones in another order
    {"lattice_name": "d1q3", "vectors": ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1))},
    {"lattice_name": "d1q3", "vectors": ((0,), (-1,), (1,))},
])
def test_a_lattice_name_must_name_the_given_vectors(fields):
    with pytest.raises(ConfigError, match="^key 'name': "):
        RunConfig(**fields)


def test_a_lattice_name_may_stand_in_either_case_beside_its_vectors():
    assert RunConfig(lattice_name="D1Q3", vectors=LATTICES["d1q3"]).lattice_name == "D1Q3"
    assert parse_config(config_text(RunConfig())).lattice_name is None


@pytest.mark.parametrize("text, line", [
    ("[scheme]\nsteps = 3\ns = 1.5,x\n", 3),
    ("[study]\nresolutions = 16,32,x\n", 2),
    ("[lattice]\n\nvectors = 0,0; 1,x\n", 3),
    ("[equilibrium]\nweights = 0.5;0.25\n", 2),
    ("[grid]\nnx = 6.5\n", 2),
    ("[grid]  # the grid\nNX = 6.5\n", 2),
    ("[scheme]\ns =\n", 2),
    ("[study]\nviscosity_s = ,\n", 2),
    ("[lattice]\nvectors = 0,0; ,; 1,0\n", 2),
])
def test_unparsable_value_names_its_line(text, line):
    with pytest.raises(ConfigError, match=rf"\(line {line}\)$") as info:
        parse_config(text)
    assert info.value.line == line


@pytest.mark.parametrize("text, message, line", [
    ("[grid]\nnx = 8\n\n[schemes]\ns = 1.5\n", r"unknown section \[schemes\]", 4),
    ("[grid]\nnx = 8\nnz = 8\n", r"unknown key 'nz' in section \[grid\]", 3),
    ("[grid]\nNZ = 8\n", r"unknown key 'nz' in section \[grid\]", 2),
    # every grid is nx x nx nodes on a unit domain
    ("[grid]\nnx = 8\nny = 8\n", r"unknown key 'ny' in section \[grid\]", 3),
    ("[grid]\nlength = 2\n", r"unknown key 'length' in section \[grid\]", 2),
    ("[initial]\nname = sine\n", r"unknown key 'name' in section \[initial\]", 2),
    ("[scheme]\nsteps = 3\ndt = 0.015625\n", r"unknown key 'dt' in section \[scheme\]", 3),
    ("[equilibrium]\nkind = anything\n",
     r"unknown key 'kind' in section \[equilibrium\]", 2),
    ("[study]\nviscosity_n = 16\nviscosity_mode = 9\n",
     r"unknown key 'viscosity_mode' in section \[study\]", 3),
    ("[study]\nviscosity_amplitude = 0.001\n",
     r"unknown key 'viscosity_amplitude' in section \[study\]", 2),
    ("[study]\nviscosity_n = 32\n\nhorizon_decay_times = 1.2\n",
     r"unknown key 'horizon_decay_times' in section \[study\]", 4),
    # a uniform state is written as zero amplitudes; every profile is mode 1
    ("[initial]\nkind = uniform\n", r"unknown key 'kind' in section \[initial\]", 2),
    ("[initial]\nrho0 = 1.0\nrho_mode = 2\n",
     r"unknown key 'rho_mode' in section \[initial\]", 3),
    ("[initial]\nux_mode = 2\n", r"unknown key 'ux_mode' in section \[initial\]", 2),
    ("[grid]\nnx = 8\n[initial]\nuy_amplitude = 0.1\n\nuy_mode = 3\n",
     r"unknown key 'uy_mode' in section \[initial\]", 6),
])
def test_unknown_section_or_key_is_rejected(text, message, line):
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(text)
    assert info.value.line == line


@pytest.mark.parametrize("key, value", [
    ("resolutions", "16,32,64"),
    ("resolutions", "16,32,48,64"),
    ("resolutions", "0,0,0,0"),
    ("resolutions", "-8,-16,-32,-64"),
    # the snapshot analysis needs 8 nodes along every axis of every grid
    ("resolutions", "4,8,16,32"),
    ("coarse_steps", "19"),
    ("viscosity_n", "0"),
    ("viscosity_n", "-32"),
    ("viscosity_n", "7"),
])
def test_out_of_range_study_value_names_its_key(key, value):
    with pytest.raises(ConfigError, match=f"^key '{key}': "):
        parse_config(f"[study]\n{key} = {value}\n")


def test_study_grids_of_eight_nodes_are_accepted():
    cfg = parse_config("[study]\nresolutions = 8,16,32,64\nviscosity_n = 8\n")
    assert cfg.resolutions == (8, 16, 32, 64) and cfg.viscosity_n == 8


def test_config_is_validated_however_it_is_made():
    with pytest.raises(ConfigError, match="key 'viscosity_n'"):
        RunConfig(viscosity_n=0)
    with pytest.raises(ConfigError, match="key 'resolutions'"):
        dataclasses.replace(RunConfig(), resolutions=(0, 0, 0, 0))
