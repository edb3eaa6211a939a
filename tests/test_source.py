"""Checks on the library's source itself, on the test oracles', and on
the digests README quotes."""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "topolab"


def unbounded_caches(source: str) -> list[str]:
    """The functions taking arguments that ``source`` decorates with
    ``functools.cache`` or ``functools.lru_cache(maxsize=None)``, under
    any import spelling: such a cache keeps every argument and result
    for the life of the process."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id in modules:
            return expr.attr
        return None

    def unbounded(decorator) -> bool:
        if not isinstance(decorator, ast.Call):
            return resolve(decorator) == "cache"
        if resolve(decorator.func) == "cache":
            return True
        if resolve(decorator.func) != "lru_cache":
            return False
        sizes = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)

    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            takes = a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg
            if takes and any(unbounded(d) for d in node.decorator_list):
                out.append(node.name)
    return out


def test_the_scan_finds_unbounded_caches():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as lru\n"
        "@functools.cache\ndef a(x): pass\n"
        "@cache\ndef b(*xs): pass\n"
        "@ft.lru_cache(maxsize=None)\ndef c(x): pass\n"
        "@lru(None)\ndef d(*, x): pass\n"
        "class K:\n    @functools.cache\n    def e(self): pass\n"
        "@functools.cache\ndef zero(): pass\n"
        "@lru(maxsize=4)\ndef bounded(x): pass\n"
        "@lru\ndef default(x): pass\n"
        "@other.cache\ndef elsewhere(x): pass\n"
    )
    assert unbounded_caches(source) == ["a", "b", "c", "d", "e"]


def test_no_unbounded_process_wide_caches():
    # derived tables live on their space or pair kernel and die with it;
    # a process-wide cache may hold only a bounded number of entries or
    # none keyed by an argument, like the CLI's parser
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(f.relative_to(SRC)): unbounded_caches(f.read_text(encoding="utf-8")) for f in files}
    assert {name: fns for name, fns in found.items() if fns} == {}


#: what a kernel row may read of its space: n, the whole set, and the
#: closure verdicts and identity lanes, functions of n and of the plane
#: they are given
SPACE_READS = {"n", "full", "plane_props", "identity_lanes"}


def space_reads(source: str) -> list[str]:
    """Each read of ``k.topology`` or ``p.topology`` in ``source`` other
    than one of :data:`SPACE_READS`, as "line: expression".  A space
    handed whole to a function of the module as its first argument (a
    table memoized on the space) is read through that function's
    parameter, which must obey the same rule."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def wider(node, seen) -> list[str]:
        up = parents[node]
        if isinstance(up, ast.Attribute) and up.attr in SPACE_READS:
            return []
        fn = defs.get(getattr(up.func, "id", None)) if isinstance(up, ast.Call) and up.args[:1] == [node] else None
        if fn is None:
            return [f"{node.lineno}: {ast.unparse(up)}"]
        if fn.name in seen:
            return []
        param = fn.args.args[0].arg
        return [read for name in ast.walk(fn) if isinstance(name, ast.Name) and name.id == param
                for read in wider(name, seen | {fn.name})]

    return [read for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "topology"
            and isinstance(node.value, ast.Name) and node.value.id in ("k", "p")
            for read in wider(node, frozenset())]


def test_the_scan_finds_wider_space_reads():
    source = (
        "def f(k, p, op):\n"
        "    n, full = k.topology.n, p.topology.full\n"
        "    top = p.topology\n"
        "    g(k.topology, k.topology.family_plane(k.family), op.topology)\n"
        "    return k.topology.closure(n), p.topology.plane_props(0), narrow(k.topology), wide(p.topology, 1)\n"
        "def narrow(top):\n"
        "    return top.n + narrow(top)\n"
        "def wide(space, x):\n"
        "    return space.full, space.opens\n"
    )
    assert sorted(space_reads(source)) == [
        "3: top = p.topology", "4: g(k.topology, k.topology.family_plane(k.family), op.topology)",
        "4: k.topology.family_plane", "5: k.topology.closure", "9: space.opens"]


def test_kernel_rows_read_the_space_only_through_n_and_its_planes():
    # the sweep shares a pair statement's clean run across spaces by what
    # the kernel is made of (n, the selector-open family, the enlarger's
    # table), which is sound only while every row of a kernel or pair
    # reads its space through n and what n and its arguments fix
    found = {name: space_reads((SRC / name).read_text(encoding="utf-8"))
             for name in ("pairs.py", "filters.py", "compact.py")}
    assert {name: reads for name, reads in found.items() if reads} == {}


def unread_functions(module: str, readers: list[str]) -> list[str]:
    """The public functions of ``module`` read neither by its statements
    outside definitions (a table like ``ROUTES``) nor by ``readers``,
    directly or through functions read that way."""
    tree = ast.parse(module)
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def reads(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    todo = [name for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for name in reads(node)]
    todo += [name for source in readers for name in reads(ast.parse(source))]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += reads(defs[name])
    return [name for name, node in defs.items()
            if isinstance(node, ast.FunctionDef) and not name.startswith("_") and name not in reached]


def test_the_scan_finds_unread_functions():
    module = (
        "def kept(): return helper()\n"
        "def helper(): pass\n"
        "def in_table(): pass\n"
        "def dead(): return dead_helper()\n"
        "def dead_helper(): pass\n"
        "def _private(): pass\n"
        "TABLE = (in_table,)\n"
    )
    assert unread_functions(module, ["from m import dead\nassert m.kept()\n"]) == ["dead", "dead_helper"]


def test_every_oracle_is_read():
    # an oracle that lost its last comparison would pass unnoticed: each
    # one is read by a row of oracles.ROUTES or by a test, and each row is
    # run by exactly one route_check(...) test
    from oracles import ROUTES

    readers = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("test_*.py"))]
    assert unread_functions((TESTS / "oracles.py").read_text(encoding="utf-8"), readers) == []
    run = re.findall(r'"(\w+)"', " ".join(re.findall(r"^\w+ = route_check\((.*)\)$", "\n".join(readers), re.M)))
    assert sorted(run) == sorted(route.name for route in ROUTES)


def test_each_statement_text_is_declared_once():
    # a failure record's statement text comes from the one declaration
    # of harness.STATEMENTS that lists it: no text is listed twice, no
    # other string of the module spells one, and only the runner writes
    # records or counts instances
    from topolab import harness

    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    listed = [elt for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Statement"
              for elt in node.args[1].elts]
    texts = [elt.value for elt in listed]
    assert texts and len(texts) == len(set(texts))
    assert sorted(texts) == sorted(t for st in harness.STATEMENTS for t in st.texts)
    spelled = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in texts and not any(node is e for e in listed)]
    assert spelled == []

    def writers(test) -> set[str]:
        return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and any(test(node) for node in ast.walk(fn))}

    assert writers(lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail") == {
        "_apply", "_compared"}
    assert writers(lambda node: isinstance(node, ast.AugAssign)
                   and getattr(node.target, "attr", None) == "instances_checked") == {
        "merge", "_apply", "_keyed", "_compared"}


def test_each_statement_names_table_readings_and_its_stage_key_covers_them():
    # every hypothesis, size, gate and key a declaration names is a reading
    # of harness._READINGS, each declared once with whether a pair's kernel
    # fixes it; a suite's PAIR statements run as one stage, keyed by the
    # kernel and every reading they name that the kernel does not fix, and
    # only the two agreement statements declare a key of their own
    from topolab import harness

    table = harness._READINGS
    for st in harness.STATEMENTS:
        assert set(st.names) <= set(table), st.texts
        assert all(type(name) is str and name for name in (*st.hyp, st.gate or "-", *st.given, *st.key))
        assert type(st.size) is int or st.size in table
    keys = {}
    for suite in harness.SUITE_NAMES:
        pair = [st for st in harness.STATEMENTS if st.suite == suite and st.reads == harness.PAIR]
        if pair:
            keys[suite] = harness._stage_key(pair)
            unfixed = {name for st in pair for name in st.names if not table[name].fixed}
            assert keys[suite][0] == "kernel" and unfixed <= set(keys[suite]), suite
    assert keys == {"structure": ("kernel", "dominates"), "filters": ("kernel",),
                    "compactness": ("kernel", "dominates", "monotone")}
    assert [st.texts[0] for st in harness.STATEMENTS if st.key] == [
        "agreeing enlargers induce one family", "agreeing enlargers give one verdict"]


def pinned_digests(source: str) -> dict[tuple[str, str], str]:
    """(config, spaces) -> the sha256 a test function of ``source`` pins
    for its one ``_report_digest(config, spaces)`` call, both as
    normalised source text (a name read through its assignment in the
    function), spaces "default" where the call names none."""
    out = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        assigned = {t.id: node.value for node in nodes if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        calls = [node for node in nodes
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report_digest"]
        pins = [node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch("[0-9a-f]{64}", node.value)]
        if len(calls) == 1 and len(pins) == 1:
            args = [ast.unparse(assigned.get(getattr(arg, "id", None), arg)) for arg in calls[0].args]
            out[args[0], args[1] if len(args) > 1 else "default"] = pins[0]
    return out


def readme_digest_rows(text: str) -> list[tuple[str, str, str]]:
    """(config, spaces, digest prefix) for each row of README's digest
    table, config and spaces as normalised source text."""
    def norm(src: str) -> str:
        return ast.unparse(ast.parse(src, mode="eval"))

    lines = text.splitlines()
    rows = []
    for line in lines[lines.index("| config | spaces | digest |") + 2:]:
        if not line.startswith("|"):
            break
        config, spaces, digest = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append((norm(config), spaces if spaces == "default" else norm(spaces), digest.rstrip("…")))
    return rows


def test_readme_digests_begin_the_pinned_ones():
    # README quotes the report digests tier 1 pins: each row of its table
    # names a config and spaces a test of test_harness.py pins, and begins
    # that test's digest
    pins = pinned_digests((TESTS / "test_harness.py").read_text(encoding="utf-8"))
    rows = readme_digest_rows((TESTS.parent / "README.md").read_text(encoding="utf-8"))
    assert rows
    for config, spaces, prefix in rows:
        assert len(prefix) >= 8 and pins.get((config, spaces), "").startswith(prefix), (config, spaces)
