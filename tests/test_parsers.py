"""Property tests: every parser either parses its input or raises a
PrivGamesError subclass, never another exception, and every typed table
reads back the values it was written with."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_config import _FULL

from privgames import cli, config, data, games
from privgames.errors import CsvParseError, DomainError, PrivGamesError

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
def test_transcript_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "t.txt"
    path.write_bytes(raw)
    _parses_or_raises_privgames_error(games.load_transcript, str(path))


_RESULTS = (
    "# privgames-results v1 config=0123456789ab status=complete generated=2026-01-01T00:00:00Z\n"
    f"{data.TABLES['results'][0]}\n"
    "0,traditional,200,0.5,0.1,0.2,0.3\n3,traditional,200,0.75,0.1,0.2,0.3\n"
)


@SETTINGS
@given(_mangled(_RESULTS))
def test_results_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "results.csv"
    path.write_bytes(raw)
    _parses_or_raises_privgames_error(cli.read_result_rows, str(path))
    # Joined with its model-seeded twin, every parsed row reaches the
    # comparison maths.
    twin = tmp_path / "twin.csv"
    twin.write_text(_RESULTS.replace("traditional", "model_seeded"))
    out = str(tmp_path / "cmp.csv")
    _parses_or_raises_privgames_error(
        lambda: cli.cmd_compare(str(path), str(twin), 0.8, out, log=lambda _: None)
    )


@SETTINGS
@given(_mangled(_FULL))
def test_config_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "exp.ini"
    path.write_bytes(raw)
    try:
        assert isinstance(config.load_experiment_config(str(path)), config.ExperimentConfig)
    except PrivGamesError:
        pass


# Values each table's columns accept; the comparison's read back as text.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"))
_UNIT = st.floats(0.0, 1.0)
_NUMBER = st.floats(allow_nan=False)
_BIT = st.sampled_from([0, 1])
_ROWS = {
    "results": st.tuples(_TEXT, _TEXT, st.integers(), _UNIT, _NUMBER, _UNIT, _UNIT),
    "comparison": st.tuples(_TEXT, _TEXT, _TEXT, _TEXT, _TEXT),
    "convergence": st.tuples(_TEXT, _TEXT, st.integers(), _UNIT, _NUMBER, _NUMBER),
    "dp-audit": st.tuples(_TEXT, _UNIT, _UNIT, _NUMBER, _BIT),
    "transcript": st.tuples(
        st.integers(), _BIT, st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 2**64 - 1),
    ),
}


def _bits(row):
    """A row with each float as its IEEE bytes, so -0.0 differs from 0.0."""
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in row]


# Header values each kind's writer may write: a header value holds no
# "=" (it would start another key) and no line break.  ``_HEADER_TEXT``
# also draws the breaks of str.splitlines other than \r and \n, which
# the writer refuses.
_HASH = st.text("0123456789abcdef", min_size=12, max_size=12)
_STATUS = st.sampled_from(["complete", "partial"])
_HEADER_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="=\r\n")
)
_HEADERS = dict.fromkeys(["results", "convergence", "dp-audit"], st.tuples(_HASH, _STATUS))
_HEADERS["comparison"] = st.tuples(st.one_of(_HASH, st.just("mixed")), _STATUS)
_HEADERS["transcript"] = st.tuples(
    _HASH, st.sampled_from(games.GAME_KINDS), st.integers(), _HEADER_TEXT
)


def test_every_typed_table_is_round_tripped():
    assert set(_ROWS) == set(_HEADERS) == set(data.TABLES)


@SETTINGS
@given(st.sampled_from(sorted(_ROWS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _HEADERS[kind], st.lists(_ROWS[kind], max_size=5))
))
def test_typed_table_reads_back_what_it_wrote(tmp_path, case):
    kind, header, rows = case
    path = tmp_path / "table.csv"
    if kind == "transcript" and "".join(header[3].splitlines()) != header[3]:
        # See test_stamped_transcript_reads_back_what_it_wrote.
        with pytest.raises(DomainError, match="^transcript header record="):
            data.table_lines(kind, header, rows)
        return
    if kind == "transcript":
        data.write_text(path, "\n".join(data.table_lines(kind, header, rows)) + "\n")
    else:
        cli._write_table(str(path), kind, *header, rows, log=lambda _: None)
        header += (re.search("generated=(.*)", path.read_text().splitlines()[0])[1],)
    fields, back = data.read_table(path, kind)
    assert fields == dict(zip([key for key, _ in data.TABLES[kind][2]], header))
    assert [no for no, _, _ in back] == list(range(3, 3 + len(rows)))
    assert [_bits(values) for *_, values in back] == [_bits(row) for row in rows]


@SETTINGS
@given(_HASH, st.sampled_from(games.GAME_KINDS), _HEADER_TEXT, st.lists(st.tuples(
    _BIT, st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2**64 - 1),
), max_size=5))
def test_stamped_transcript_reads_back_what_it_wrote(tmp_path, cfg_hash, kind, record, runs):
    transcript = games.GameTranscript(np.array(runs, dtype=games.RUN_DTYPE), record, kind, cfg_hash)
    path = tmp_path / "t.txt"
    if "".join(record.splitlines()) != record:
        # A line break of str.splitlines (form feed, U+2028, ...) splits
        # the header line for a reader that splits lines so: the writer
        # refuses it, naming the key.
        with pytest.raises(DomainError, match="^transcript header record="):
            games.transcript_to_text(transcript)
        return
    data.write_text(path, games.transcript_to_text(transcript))
    back = games.load_transcript(path)
    assert (back.config_hash, back.game_kind, back.record_id) == (cfg_hash, kind, record)
    assert back.runs.tobytes() == transcript.runs.tobytes()


def test_header_declarations_list_the_keys_each_writer_emits(tmp_path):
    first = {}
    for kind in sorted(set(data.TABLES) - {"transcript"}):
        path = tmp_path / f"{kind}.csv"
        cli._write_table(str(path), kind, "0123456789ab", "complete", [], log=lambda _: None)
        first[kind] = path.read_text().splitlines()[0]
    runs = np.zeros(2, dtype=games.RUN_DTYPE)
    transcript = games.GameTranscript(runs, "7", games.TRADITIONAL, "0123456789ab")
    first["transcript"] = games.transcript_to_text(transcript).splitlines()[0]
    for kind, line in first.items():
        assert re.findall(r" (\w+)=", line) == [key for key, _ in data.TABLES[kind][2]], kind


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


# (token, whether it is a finite float)
_CONTINUOUS_TOKEN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), True)),
    st.sampled_from(
        ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e400",
         "", "x", "1.2.3", "--1", "0x1f", "1e"]
    ).map(lambda t: (t, False)),
)


@SETTINGS
@given(st.lists(_CONTINUOUS_TOKEN, min_size=1, max_size=8))
def test_continuous_column_loads_iff_every_token_is_finite(tmp_path, cells):
    path = tmp_path / "d.csv"
    path.write_text("id,amount\n" + "".join(f"{i},{tok}\n" for i, (tok, _) in enumerate(cells)))
    hints = {"amount": data.ColumnHint("continuous", bins=3)}
    try:
        data.load_csv(str(path), hints)
        loaded = True
    except CsvParseError:
        loaded = False
    assert loaded == all(finite for _, finite in cells)


@SETTINGS
@given(_mangled(_SIDECAR))
def test_sidecar_parser_parses_or_raises(tmp_path, raw):
    path = tmp_path / "d.schema"
    path.write_bytes(raw)
    _parses_or_raises_privgames_error(data.parse_schema_sidecar, str(path))


@pytest.mark.parametrize(
    "decl", ["ordered:0", "ordered:-4", "continuous:0", "continuous:-1", "categorical:7"]
)
def test_sidecar_count_below_one_names_the_line(tmp_path, decl):
    # categorical takes no count at all, so any count is out of range
    path = tmp_path / "d.schema"
    path.write_text(f"# kinds\nlevel = {decl}\n")
    problem = (
        "categorical takes no argument, got '7'"
        if decl.startswith("categorical")
        else r"'-?\d+' is not >= 1"
    )
    message = rf"d\.schema: line 2: column 'level': {problem}"
    with pytest.raises(CsvParseError, match=message):
        data.parse_schema_sidecar(str(path))


def test_sidecar_column_declared_twice_names_the_line(tmp_path):
    path = tmp_path / "d.schema"
    path.write_text("level = ordered:5\nflag = categorical\nlevel = ordered:9\n")
    message = r"d\.schema: line 3: column 'level' is declared twice"
    with pytest.raises(CsvParseError, match=message):
        data.parse_schema_sidecar(str(path))


def test_csv_header_naming_a_column_twice_names_file_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("name,level,name\na,0,b\n")
    message = r"d\.csv: line 1: column 'name' appears twice in the header"
    with pytest.raises(CsvParseError, match=message):
        data.load_csv(str(path))


def test_hint_for_a_column_the_csv_lacks_names_file_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(_CSV)
    sidecar = tmp_path / "d.schema"
    sidecar.write_text(_SIDECAR + "levle = ordered:5\n")
    hints = data.parse_schema_sidecar(str(sidecar))
    with pytest.raises(CsvParseError, match=r"d\.csv: the schema names column 'levle'"):
        data.load_csv(str(path), hints)
    del hints["levle"]
    assert data.load_csv(str(path), hints).schema.names == ("name", "level", "amount", "flag")



def test_csv_byte_order_mark_is_not_part_of_the_first_column(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    plain = tmp_path / "plain.csv"
    plain.write_text(_CSV, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + _CSV.encode("utf-8"))
    sidecar = tmp_path / "d.schema"
    sidecar.write_text("name = categorical\n" + _SIDECAR)
    hints = data.parse_schema_sidecar(str(sidecar))
    loaded = data.load_csv(str(marked), hints)
    assert loaded.schema.names[0] == "name"
    assert loaded == data.load_csv(str(plain), hints)
