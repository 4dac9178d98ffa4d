"""Every loader, given any bytes, returns or raises ValueError, which the
command line reports as one error line; no other exception escapes it."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pdalab.config import load_config  # noqa: E402
from pdalab.data import load_csv, load_metadata  # noqa: E402
from pdalab.metrics import load_json, read_metrics  # noqa: E402

# Pieces of CSV, YAML and JSON, joined at random.
_TOKENS = st.sampled_from([
    "x0", "x1", "y", "domain", ",", "\n", "\r\n", "\r", '"', "'", " ", "\t", "#", ":", "- ",
    "0", "1", "-1", "2.5", "1e400", "nan", "-inf", "9" * 25, "null", "true", "é", "\x00",
    "{", "}", "[", "]", "&a ", "*a", "<<: ", "!!python/object ", "? ", "|", "seed", "data",
    "synthetic", "csv", "dim", "schema", '"1.0"', "epoch", "class_weights", "bound",
    "num_source_classes", "shared_classes", '"a"', '"a": ',
])


def _inputs(openers):
    """Any bytes, any text, joined tokens, or one of ``openers`` repeated,
    up to nesting deeper than the interpreter can recurse."""
    nesting = st.builds(lambda opener, depth, tail: opener * depth + tail,
                        st.sampled_from(openers), st.integers(1, 300) | st.just(3000),
                        st.sampled_from(["", "1", "]}"]))
    # Any character but a surrogate, which UTF-8 cannot encode.
    text = st.text(st.characters(exclude_categories=("Cs",)), max_size=120)
    return st.one_of(st.binary(max_size=64), text,
                     st.lists(_TOKENS, max_size=40).map("".join), nesting)


_JSON = _inputs(["[", "{", '{"a":', '[{"a":', "- "])
# The config loader stops flow nesting early, before YAML's scanner slows.
_YAML = _inputs(["- ", "? ", "- ? ", "[", "{", '{"a": '])
LOADERS = {
    "config": (load_config, _YAML),
    "csv": (lambda path: load_csv(path, 1), _JSON),
    "metadata": (load_metadata, _JSON),
    "json": (lambda path: load_json(path, "document"), _JSON),
    "metrics": (read_metrics, _JSON),
}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "input"


@pytest.mark.parametrize("loader, inputs", LOADERS.values(), ids=LOADERS.keys())
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_input_loads_or_raises_value_error(path, loader, inputs, data):
    raw = data.draw(inputs)
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    try:
        loader(path)
    except ValueError:
        pass
