"""Property tests: every parser either parses its input or raises a
PrivGamesError subclass, never another exception."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privgames import cli, data, games
from privgames.errors import PrivGamesError

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Tokens that sit near the edges of what the parsers accept.
_TOKEN = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "7", "0.5", "1e999", "nan", "inf", "-inf", "", "x", "1_0",
         "١", "0x1f", " 3 ", "\"a,b\"", "\"", "#", "=", ":", ","]
    ),
    st.text(max_size=6),
)
_BYTES = st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\r", b"\n", b"\xef\xbb\xbf"])


@st.composite
def _mangled(draw, base):
    """``base`` with a few tokens replaced, lines dropped or duplicated,
    and raw bytes (some not UTF-8) spliced in."""
    lines = base.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "token", "drop", "copy", "line"]))
        if action == "token":
            parts = lines[i].split(",")
            j = draw(st.integers(0, len(parts) - 1))
            parts[j] = draw(_TOKEN)
            lines[i] = ",".join(parts)
        elif action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "copy":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(st.text(max_size=12)))
    raw = "\n".join(lines).encode("utf-8", errors="surrogatepass")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_BYTES) + raw[at:]
    return raw


def _parses_or_raises_privgames_error(fn, *args):
    try:
        fn(*args)
    except PrivGamesError:
        pass


_TRANSCRIPT = (
    "# privgames-transcript v1 config=0123456789ab game=traditional n_eval=4 record=7\n"
    "run_index,secret_bit,score,run_seed\n"
    "0,1,0.75,123\n1,0,0.25,456\n2,1,1.0,789\n3,0,0.0,1011\n"
)


@SETTINGS
@given(_mangled(_TRANSCRIPT))
def test_transcript_parser_parses_or_raises(raw):
    text = raw.decode("utf-8", errors="replace")
    _parses_or_raises_privgames_error(games.transcript_from_text, text)


_RESULTS = (
    "# privgames-results v1 config=0123456789ab status=complete generated=2026-01-01T00:00:00Z\n"
    f"{cli.RESULTS_COLUMNS}\n"
    "0,traditional,200,0.5,0.1,0.2,0.3\n3,traditional,200,0.75,0.1,0.2,0.3\n"
)


@SETTINGS
@given(_mangled(_RESULTS))
def test_results_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "results.csv"
    path.write_bytes(raw)
    _parses_or_raises_privgames_error(cli.read_result_rows, str(path))


_CSV = "name,level,amount,flag\na,0,1.5,x\nb,2,-3,y\na,1,0.25,x\n\"c,d\",4,7e1,z\n"
_SIDECAR = "# kinds\nlevel = ordered:5\namount = continuous:3\nflag = categorical\n"


@SETTINGS
@given(_mangled(_CSV), st.booleans())
def test_csv_parser_parses_or_raises(tmp_path, raw, with_hints):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    sidecar = tmp_path / "d.schema"
    sidecar.write_text(_SIDECAR)
    hints = data.parse_schema_sidecar(str(sidecar)) if with_hints else None
    _parses_or_raises_privgames_error(data.load_csv, str(path), hints)


@SETTINGS
@given(_mangled(_SIDECAR))
def test_sidecar_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "d.schema"
    path.write_bytes(raw)
    _parses_or_raises_privgames_error(data.parse_schema_sidecar, str(path))
