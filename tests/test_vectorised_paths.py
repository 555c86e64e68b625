"""Whole-array paths against the row loops they replaced.

Each reference below is the per-row implementation the package used before
its row-bound paths became whole-array numpy; the properties require equal
output (bytes, arrays, draws, error messages) on random and mutated inputs.
The learners count from the batch's columns where they lie, so the same rows
must learn bit-equal models whatever the layout and dtype of the batch, and
whether they count the rows once into one histogram or once per node.
"""

import collections
import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.errors import FormatError
from dolearn.graph import Admg, c_components, effective_parents, parent_sets, random_admg, topological_order
from dolearn.intervene import InterventionalModel, learn_marginal_do, sample_do
from dolearn.learn import (
    _component_plan, _counted_model, _do_plan, _observational_plan, _Plan, add_one_estimator, exact_do_model,
    learn_ccomponent_intervention, learn_do,
)
from dolearn.model import (
    GroundTruthCbn, SampleBatch, _encode, _hidden_parents, empirical_marginal, exact_observational, model_to_json,
    parse_samples_csv, random_cbn, sample_observational, samples_to_csv, symbol_dtype,
)

PROPERTY = settings.get_profile("property")


# ---------------------------------------------------------------------------
# Reference row loops.


def reference_samples_to_csv(batch, names):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([names[c] for c in batch.columns])
    for row in batch.data:
        writer.writerow([int(v) for v in row])
    return out.getvalue()


def reference_parse_samples_csv(text, names, alphabet_size, source="<samples>"):
    reader = csv.reader(io.StringIO(text))
    try:
        return reference_read_rows(reader, names, alphabet_size, source)
    except csv.Error as e:
        raise FormatError(f"{source}:{reader.line_num}: unreadable CSV: {e}") from None


def reference_read_rows(reader, names, alphabet_size, source):
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{source}:1: empty sample file") from None
    name_to_id = {name: i for i, name in enumerate(names)}
    if sorted(header) != sorted(names):
        raise FormatError(f"{source}:1: header does not match the graph's variable names")
    columns = tuple(name_to_id[h] for h in header)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise FormatError(f"{source}:{lineno}: expected {len(columns)} cells, found {len(row)}")
        try:
            vals = [int(v) for v in row]
        except ValueError:
            raise FormatError(f"{source}:{lineno}: non-integer cell") from None
        for v in vals:
            if not 0 <= v < alphabet_size:
                raise FormatError(f"{source}:{lineno}: symbol {v} outside alphabet [0, {alphabet_size})")
        rows.append(vals)
    if not rows:
        raise FormatError(f"{source}:1: sample file has no rows")
    return SampleBatch(columns, np.asarray(rows, dtype=np.int64))


def reference_sample_rows(tables, u):
    cdf = np.cumsum(tables, axis=1)
    vals = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(vals, tables.shape[1] - 1)


def reference_sample_observational(cbn, m, seed):
    g = cbn.graph
    rng = np.random.default_rng(seed)
    hidden_vals = []
    for prior in cbn.hidden_priors:
        hidden_vals.append(reference_sample_rows(np.broadcast_to(prior, (m, prior.size)), rng.random(m)))
    order = topological_order(g)
    values = np.zeros((m, g.node_count), dtype=np.int64)
    for node in order:
        flat = cbn.tables[node].reshape(-1, g.alphabet_size)
        idx = np.zeros(m, dtype=np.int64)
        for p in g.parents(node):
            idx = idx * g.alphabet_size + values[:, p]
        for h in cbn.hidden_parents[node]:
            idx = idx * cbn.hidden_domain + hidden_vals[h]
        values[:, node] = reference_sample_rows(flat[idx], rng.random(m))
    return SampleBatch(tuple(order), values[:, order])


def reference_random_cbn(g, hidden_domain, smoothing, seed):
    a = g.alphabet_size
    rng = np.random.default_rng(seed)

    def draw_rows(shape):
        rows = rng.standard_exponential(shape)
        rows /= rows.sum(axis=-1, keepdims=True)
        return (1.0 - smoothing) * rows + smoothing / shape[-1]

    shapes = [(a,) * len(g.parents(v)) + (hidden_domain,) * len(h) + (a,) for v, h in enumerate(_hidden_parents(g))]
    priors = tuple(draw_rows((hidden_domain,)) for _ in range(len(g.bidirected_edges)))
    return GroundTruthCbn(g, hidden_domain, priors, tuple(draw_rows(shape) for shape in shapes))


def reference_sample_do(im, count, seed):
    model = im.dx
    rng = np.random.default_rng(seed)
    values = np.zeros((count, max(model.order) + 1), dtype=np.int64)
    for node in model.order:
        idx = np.zeros(count, dtype=np.int64)
        for u in model.conditioning_sets[node]:
            idx = idx * model.alphabet_size + values[:, u]
        cdf = np.cumsum(model.table(node)[idx], axis=1)
        vals = (rng.random(count)[:, None] > cdf).sum(axis=1)
        values[:, node] = np.minimum(vals, model.alphabet_size - 1)
    keep = [v for v in model.order if v != im.x_node]
    return SampleBatch(tuple(keep), values[:, keep])


def reference_encode(values, cols, alphabet):
    """Big-endian int64 key of each row over the column positions cols."""
    key = np.zeros(values.shape[0], dtype=np.int64)
    for c in cols:
        key = key * alphabet + values[:, c].astype(np.int64)
    return key


def reference_grouped_counts(values_by_node, cols, child, alphabet):
    keys = reference_encode(values_by_node, cols, alphabet)
    uniq, inv = np.unique(keys, return_inverse=True)
    joint = np.bincount(inv * alphabet + values_by_node[:, child], minlength=uniq.size * alphabet)
    joint = joint.reshape(uniq.size, alphabet)
    return uniq, joint, joint.sum(axis=1)


def reference_counted_model(plan, samples, t):
    """The learners' counting as one int64 key and one bincount per node, over
    the sample rows that match the node's pins."""
    a = plan.graph.alphabet_size
    data = samples.data
    at = samples.positions(range(plan.graph.node_count))
    matching = {}
    joints, thresholds = [], []
    for v in plan.order:
        z = plan.conditioning[v]
        key = reference_encode(data, [at[u] for u in (*z, v)], a)
        pins = plan.pins[v]
        if pins:
            if pins not in matching:
                mask = np.ones(samples.size, dtype=bool)
                for u, val in pins:
                    mask &= data[:, at[u]] == val
                matching[pins] = np.flatnonzero(mask)
            key = key.take(matching[pins])
        joints.append(np.bincount(key, minlength=a ** (len(z) + 1)).reshape(-1, a))
        thresholds.append(1 if v in plan.exempt else t)
    joint = np.concatenate(joints) if joints else np.zeros((0, a))
    counts = joint.sum(axis=1)
    seen = counts > 0
    fitted = seen & (counts >= np.repeat(thresholds, [block.shape[0] for block in joints]))
    values = np.where(fitted[:, None], add_one_estimator(joint), 1.0 / a)
    return plan.model(
        values, fitted, fitted_rows=int(fitted.sum()), below_threshold_rows=int((seen & ~fitted).sum())
    )


def reference_effective_parents(g):
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in range(g.node_count)]
    for i, j in g.bidirected_edges:
        adj[i].append(j)
        adj[j].append(i)
    parents = [g.parents(v) for v in range(g.node_count)]
    result = [()] * g.node_count
    for i, v in enumerate(order):
        prefix = set(order[: i + 1])
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in prefix and w not in comp:
                    comp.add(w)
                    stack.append(w)
        closure = set(comp)
        for u in comp:
            closure.update(parents[u])
        result[v] = tuple(sorted(u for u in closure if pos[u] < i))
    return tuple(result)


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def batches(draw, alphabets=(2, 3, 10, 11, 300), min_rows=0):
    alphabet = draw(st.sampled_from(alphabets))
    ncol = draw(st.integers(1, 5))
    m = draw(st.integers(min_rows, 8))
    columns = tuple(draw(st.permutations(range(ncol))))
    cells = draw(st.lists(st.integers(0, alphabet - 1), min_size=m * ncol, max_size=m * ncol))
    data = np.asarray(cells, dtype=np.int64).reshape(m, ncol)
    return alphabet, SampleBatch(columns, data)


def _names(ncol, odd):
    # Odd names need quoting or carry characters the grid path must leave alone.
    base = ["v", 'q"t', "a,b", " s", "é"] if odd else ["v"]
    return tuple(f"{base[i % len(base)]}{i}" for i in range(ncol))


CELL_MUTATIONS = (
    "quote", "space", "plus", "extra", "missing", "nondigit", "outside", "delimiter", "shifted_separator",
)
TEXT_MUTATIONS = ("blank", "crlf", "crlf_one", "no_final_newline", "trailing_blank")


@st.composite
def csv_texts(draw, mutations):
    """A valid sample CSV with rows, then the drawn mutations applied."""
    alphabet, batch = draw(batches(alphabets=(2, 3, 10, 11), min_rows=1))
    odd = draw(st.booleans())
    names = _names(len(batch.columns), odd)
    lines = [[names[c] for c in batch.columns]] + [[str(int(v)) for v in row] for row in batch.data]
    chosen = draw(mutations)
    for mutation in (m for m in chosen if m in CELL_MUTATIONS):
        li = draw(st.integers(0, len(lines) - 1))
        ci = draw(st.integers(0, len(lines[li]) - 1))
        cell = lines[li][ci]
        if mutation == "quote":
            lines[li][ci] = f'"{cell}"'
        elif mutation == "space":
            lines[li][ci] = draw(st.sampled_from([f" {cell}", f"{cell} "]))
        elif mutation == "plus":
            lines[li][ci] = f"+{cell}"
        elif mutation == "extra":
            lines[li].append("0")
        elif mutation == "missing" and len(lines[li]) > 1:
            del lines[li][ci]
        elif mutation == "nondigit":
            lines[li][ci] = draw(st.sampled_from(["x", "-", "1.0", "", "٣"]))
        elif mutation == "outside":
            lines[li][ci] = str(alphabet + draw(st.integers(0, 3)))
        elif mutation == "delimiter":
            lines[li] = [draw(st.sampled_from([";", " ", "\t", "0"])).join(lines[li])]
        elif mutation == "shifted_separator" and len(lines[li]) > 1:
            lines[li][:2] = [lines[li][0] + lines[li][1], ""]
    header = io.StringIO()
    csv.writer(header, lineterminator="").writerow(lines[0])
    rows = [header.getvalue()] + [",".join(cells) for cells in lines[1:]]
    terminators = ["\n"] * len(rows)
    for mutation in (m for m in chosen if m in TEXT_MUTATIONS):
        if mutation == "blank":
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, "")
            terminators.insert(at, "\n")
        elif mutation == "crlf":
            terminators = ["\r\n"] * len(rows)
        elif mutation == "crlf_one":
            terminators[draw(st.integers(0, len(rows) - 1))] = "\r\n"
        elif mutation == "no_final_newline":
            terminators[-1] = ""
        elif mutation == "trailing_blank":
            rows.append("")
            terminators.append("\n")
    text = "".join(r + t for r, t in zip(rows, terminators))
    return text, names, alphabet


def _outcome(parse, text, names, alphabet):
    try:
        batch = parse(text, names, alphabet)
    except (FormatError, csv.Error) as e:
        return ("error", type(e).__name__, str(e))
    return ("ok", batch.columns, batch.data.shape, batch.data.tolist())


# ---------------------------------------------------------------------------
# Properties.


class TestSampleCsv:
    @PROPERTY
    @given(batches(), st.booleans())
    def test_writer_bytes_equal_row_writer(self, case, odd):
        _, batch = case
        names = _names(len(batch.columns), odd)
        assert samples_to_csv(batch, names) == reference_samples_to_csv(batch, names)

    @pytest.mark.parametrize("mutation", CELL_MUTATIONS + TEXT_MUTATIONS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parser_matches_row_reader_on_each_mutation(self, mutation, data):
        text, names, alphabet = data.draw(csv_texts(st.just([mutation])))
        assert _outcome(parse_samples_csv, text, names, alphabet) == _outcome(
            reference_parse_samples_csv, text, names, alphabet
        )

    @PROPERTY
    @given(csv_texts(st.lists(st.sampled_from(CELL_MUTATIONS + TEXT_MUTATIONS), max_size=3)))
    def test_parser_matches_row_reader(self, case):
        text, names, alphabet = case
        assert _outcome(parse_samples_csv, text, names, alphabet) == _outcome(
            reference_parse_samples_csv, text, names, alphabet
        )

    @PROPERTY
    @given(batches(alphabets=(2, 3, 10, 11)), st.booleans())
    def test_written_text_parses_back(self, case, odd):
        alphabet, batch = case
        names = _names(len(batch.columns), odd)
        text = samples_to_csv(batch, names)
        assert _outcome(parse_samples_csv, text, names, alphabet) == _outcome(
            reference_parse_samples_csv, text, names, alphabet
        )
        if batch.size:
            back = parse_samples_csv(text, names, alphabet)
            assert back.columns == batch.columns
            assert np.array_equal(back.data, batch.data)

    @pytest.mark.parametrize("names, text", [
        (("v0", "v1"), "v0,v1\n0,1\n0,7\n"),
        (("v0", "v1"), "v0,v1\n0,1\n0\n"),
        (("v0", "v1"), "v0,v1\n0,1\n0,x\n"),
        (("v0", "v1"), "v0,v1\n0,1\n0;1\n"),
        (("v0", "v1"), "v0,v1\n"),
        (("v0", "v1"), ""),
        (("v0", "v1"), "v1,v2\n0,0\n"),
        (("v0", "v1"), "v0,v1\r\n0,1\r\n1,2\r\n"),
        # Headers whose comma split names the variables but whose CSV reading does not.
        (('"a', 'b"'), '"a,b"\n0,1\n'),
        (("a\r", "b"), "a\r,b\n0,1\n"),
        (("",), "\n0\n"),
    ])
    def test_error_messages_unchanged(self, names, text):
        got = _outcome(parse_samples_csv, text, names, 2)
        assert got[0] == "error"
        assert got == _outcome(reference_parse_samples_csv, text, names, 2)


class TestGroupedCounts:
    @PROPERTY
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
    )
    def test_equals_sorted_unique_counts(self, alphabet, m, seed, width):
        # Node 4 conditions on cols; the batch holds the nodes' columns in a
        # drawn order, as column-major uint8, so the counts are read from the
        # columns where they lie.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, alphabet, size=(m, 5))
        cols = tuple(int(c) for c in rng.permutation(4)[:width])
        at = rng.permutation(5)
        batch = SampleBatch(tuple(int(v) for v in at), np.asfortranarray(values[:, at].astype(np.uint8)))
        plan = _Plan(Admg(5, alphabet_size=alphabet), tuple(range(5)), ((),) * 4 + (cols,), dict.fromkeys(range(5), ()))
        model = _counted_model(plan, batch, 1)
        uniq, want_joint, _ = reference_grouped_counts(values, cols, 4, alphabet)
        # At t = 1 the fitted rows are the observed keys, each the add-1 row
        # of its counts; the model holds every other row uniform.
        idx, rows = model.fitted_rows(4)
        assert model.table(4).shape == (alphabet**width, alphabet)
        assert np.array_equal(idx, uniq)
        assert np.array_equal(rows, add_one_estimator(want_joint))


@st.composite
def learner_cases(draw, around_space=False):
    """(g, rows, x, x_val, y_set, y_bar_1, f): a drawn identifiable ADMG with
    |alphabet| in {2, 3}, observational rows of it in node order, an
    intervention, a union of confounded components with an assignment to its
    outside parents, and a marginal target set. There are 1 to 300 rows or,
    with around_space, 1 to twice |alphabet|^n, or one of |alphabet|^n - 1,
    |alphabet|^n and |alphabet|^n + 1: on both sides of the size at which
    the learners count the rows into one histogram."""
    alphabet = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    x = draw(st.integers(0, n - 1))
    g = random_admg(
        n, draw(st.integers(0, 2)), draw(st.integers(1, 3)), alphabet_size=alphabet,
        seed=draw(st.integers(0, 10_000)), identifiable_for=x,
    )
    cbn = random_cbn(g, smoothing=0.25, seed=draw(st.integers(0, 10_000)))
    space = alphabet**n
    m = st.sampled_from([space - 1, space, space + 1]) | st.integers(1, 2 * space) if around_space else st.integers(1, 300)
    batch = sample_observational(cbn, draw(m), seed=draw(st.integers(0, 10_000)))
    rows = batch.data[:, np.argsort(batch.columns)]
    comps = c_components(g).components
    chosen = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=len(comps), unique=True))
    y_set = frozenset(v for comp in chosen for v in comp)
    pa_minus = sorted(parent_sets(g, y_set)[2])
    y_bar_1 = {v: draw(st.integers(0, alphabet - 1)) for v in pa_minus}
    f = draw(st.lists(st.sampled_from([v for v in range(n) if v != x]), min_size=1, max_size=2, unique=True))
    return g, rows, x, draw(st.integers(0, alphabet - 1)), y_set, y_bar_1, f


class TestBatchLayouts:
    @PROPERTY
    @given(learner_cases(), st.randoms(use_true_random=False))
    def test_learners_agree_on_grid_row_reader_and_int64_batches(self, case, random):
        """The same rows as a digit-grid CSV with a permuted header (column-major
        uint8), a CRLF CSV (row reader, row-major uint8) and an int64 row-major batch
        give bit-equal learned models and marginals."""
        g, rows, x, x_val, y_set, y_bar_1, f = case
        header = list(range(g.node_count))
        random.shuffle(header)
        text = samples_to_csv(SampleBatch(tuple(header), rows[:, header]), g.names)
        grid = parse_samples_csv(text, g.names, g.alphabet_size)
        crlf = parse_samples_csv(text.replace("\n", "\r\n"), g.names, g.alphabet_size)
        plain = SampleBatch(tuple(range(g.node_count)), np.ascontiguousarray(rows, dtype=np.int64))
        assert grid.data.dtype == np.uint8 and grid.data.flags.f_contiguous and grid.columns == tuple(header)
        assert crlf.data.dtype == np.uint8 and crlf.columns == tuple(header)
        t = random.choice([None, 1, 3])

        def learned(batch):
            out = [learn_do(batch, g, x, x_val, t), learn_ccomponent_intervention(batch, g, y_set, y_bar_1, t)]
            return [(m.values, m.fitted, m.diagnostics) for m in out]

        want = learned(plain)
        for batch in (grid, crlf):
            for (values, fitted, diagnostics), (want_values, want_fitted, want_diagnostics) in zip(
                learned(batch), want
            ):
                assert np.array_equal(values, want_values)
                assert np.array_equal(fitted, want_fitted)
                assert diagnostics == want_diagnostics
        want_marginal = learn_marginal_do(plain, g, x, x_val, f, t)
        for batch in (grid, crlf):
            got = learn_marginal_do(batch, g, x, x_val, f, t)
            assert got.variable_ids == want_marginal.variable_ids
            assert np.array_equal(got.mass, want_marginal.mass)


class TestCountRoutes:
    """The do, component and observational plans learn, on either side of
    |alphabet|^n rows, what one int64 key and one bincount per node give."""

    @staticmethod
    def check(g, rows, x, x_val, y_set, y_bar_1, t):
        batch = SampleBatch(tuple(range(g.node_count)), np.asfortranarray(rows))
        for plan in (_do_plan(g, x, x_val), _component_plan(g, y_set, y_bar_1), _observational_plan(g)):
            got, want = _counted_model(plan, batch, t), reference_counted_model(plan, batch, t)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.fitted, want.fitted)
            assert got.diagnostics == want.diagnostics

    @PROPERTY
    @given(learner_cases(around_space=True), st.sampled_from([1, 2, 5]))
    def test_both_routes_equal_the_per_node_loop(self, case, t):
        self.check(*case[:-1], t)

    @pytest.mark.parametrize("m", [3**6 - 1, 3**6, 3**6 + 1])
    def test_the_largest_drawn_space_on_both_sides(self, m):
        """|alphabet| = 3 over 6 nodes, the largest space learner_cases draws
        and the only one whose histogram key needs more than a byte, which a
        property run need not reach. Five nodes are pinned under do(0 = 1),
        and three under the component {1, 4, 5}."""
        g = random_admg(6, 2, 3, alphabet_size=3, seed=4, identifiable_for=0)
        rows = sample_observational(random_cbn(g, smoothing=0.25, seed=2), m, seed=3)
        y_bar_1 = dict.fromkeys(parent_sets(g, (1, 4, 5))[2], 2)
        self.check(g, rows.data[:, np.argsort(rows.columns)], 0, 1, (1, 4, 5), y_bar_1, 2)


class TestNarrowKeys:
    @pytest.mark.parametrize("alphabet, width, key_dtype", [
        (2, 8, np.uint8), (16, 2, np.uint8), (2, 9, np.uint16), (300, 1, np.uint16),
        (300, 2, np.uint32), (300, 3, np.uint32), (300, 4, np.uint64),
    ])
    def test_keys_equal_python_ints(self, alphabet, width, key_dtype):
        """Keys in the narrowest unsigned type that holds |alphabet|^width - 1,
        from rows of the largest symbols and others, equal their big-endian
        values as Python ints, in symbol_dtype and in int64 columns."""
        rng = np.random.default_rng(width)
        rows = np.vstack([np.full(width, alphabet - 1), np.zeros(width, dtype=np.int64),
                          rng.integers(0, alphabet, size=(30, width))])
        rows[2::2, 0] = alphabet - 1  # the leading digit at its largest, so the top bits are set
        want = [sum(int(s) * alphabet ** (width - 1 - j) for j, s in enumerate(row)) for row in rows]
        assert want[0] == alphabet**width - 1
        for data in (rows.astype(symbol_dtype(alphabet)), rows):
            cols = list(range(width))[::-1]
            key = _encode(np.asfortranarray(data[:, ::-1]), cols, alphabet)
            assert key.dtype.kind in "iu" and key.tolist() == want
        assert _encode(rows.astype(symbol_dtype(alphabet)), range(width), alphabet).dtype == key_dtype

    def test_marginal_over_two_wide_columns_equals_counted_rows(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 300, size=(500, 3))
        rows[:40, 1:] = 299
        batch = SampleBatch((2, 0, 1), rows.astype(symbol_dtype(300)))
        counts = collections.Counter(zip(rows[:, 1].tolist(), rows[:, 2].tolist()))
        want = np.zeros((300, 300))
        for (s0, s1), c in counts.items():
            want[s0, s1] = c / len(rows)
        got = empirical_marginal(batch, [0, 1], 300)
        assert got.variable_ids == (0, 1) and got.domain_sizes == (300, 300)
        assert np.array_equal(got.mass.reshape(300, 300), want)


def with_point_masses(rows, seed):
    """Copy of the distributions rows (..., D) in which about a third of the
    rows become point masses and a third lose one entry to an exact zero."""
    rng = np.random.default_rng(seed)
    flat = np.array(rows, dtype=float).reshape(-1, rows.shape[-1])
    kind = rng.integers(0, 3, size=len(flat))
    symbol = rng.integers(0, flat.shape[1], size=len(flat))
    for i in np.flatnonzero(kind == 1):
        flat[i] = 0.0
        flat[i, symbol[i]] = 1.0
    for i in np.flatnonzero(kind == 2):
        flat[i, symbol[i]] = 0.0
        flat[i] /= flat[i].sum()
    return flat.reshape(np.shape(rows))


class TestAncestralSampling:
    def assert_observational_equal(self, cbn, m, seed):
        got = sample_observational(cbn, m, seed=seed)
        want = reference_sample_observational(cbn, m, seed)
        assert got.columns == want.columns
        assert np.array_equal(got.data, want.data)
        return got

    def assert_interventional_equal(self, model, count, seed):
        im = InterventionalModel(model, *model.x_substitution)
        got = sample_do(im, count, seed=seed)
        want = reference_sample_do(im, count, seed)
        assert got.columns == want.columns
        assert np.array_equal(got.data, want.data)
        return got

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 10]), st.sampled_from([2, 300]), st.integers(0, 10_000), st.integers(1, 300))
    def test_narrow_draws_equal_int64_kernel(self, alphabet, hidden_domain, seed, m):
        """Both samplers draw one byte per symbol, whatever the hidden domain:
        a hidden domain of 300 draws its hidden rows as uint16, and the keys
        they build are widened, so every value equals the int64 kernel's."""
        g = random_admg(5, 2, 2, alphabet_size=alphabet, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, hidden_domain=hidden_domain, smoothing=0.1, seed=seed + 1)
        batch = self.assert_observational_equal(cbn, m, seed + 2)
        model = learn_do(batch, g, 0, 1, t=2)
        draws = self.assert_interventional_equal(model, m, seed + 3)
        assert batch.data.dtype == draws.data.dtype == symbol_dtype(alphabet) == np.uint8

    def test_alphabet_above_a_byte_draws_uint16(self):
        # 300 symbols: node 1 keys on node 0 and a hidden root, node 2 on node 1.
        g = Admg(3, alphabet_size=300, directed_edges=[(0, 1), (1, 2)], bidirected_edges=[(0, 1)])
        cbn = random_cbn(g, hidden_domain=2, smoothing=0.1, seed=1)
        batch = self.assert_observational_equal(cbn, 5000, 2)
        draws = self.assert_interventional_equal(learn_do(batch, g, 2, 299, t=1), 5000, 3)
        assert batch.data.dtype == draws.data.dtype == symbol_dtype(300) == np.uint16
        assert batch.data.max() > 255 and draws.data.max() > 255

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 10]), st.integers(2, 4), st.integers(0, 10_000), st.integers(1, 300))
    def test_observational_draws_equal_row_sampler(self, alphabet, hidden_domain, seed, m):
        g = random_admg(5, 2, 2, alphabet_size=alphabet, seed=seed)
        cbn = random_cbn(g, hidden_domain=hidden_domain, smoothing=0.1, seed=seed + 1)
        self.assert_observational_equal(cbn, m, seed + 2)

    @pytest.mark.parametrize("alphabet, hidden_domain", [(2, 3), (2, 5), (3, 2), (3, 4)])
    def test_hidden_domain_apart_from_alphabet(self, alphabet, hidden_domain):
        for seed in range(4):
            g = random_admg(6, 2, 3, alphabet_size=alphabet, seed=seed)
            cbn = random_cbn(g, hidden_domain=hidden_domain, smoothing=0.1, seed=seed + 1)
            assert cbn.hidden_count > 0
            self.assert_observational_equal(cbn, 500, seed + 2)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 10]), st.integers(2, 4), st.integers(0, 10_000), st.integers(1, 300))
    def test_point_masses_and_zeros_equal_row_sampler(self, alphabet, hidden_domain, seed, m):
        g = random_admg(5, 2, 2, alphabet_size=alphabet, seed=seed)
        cbn = random_cbn(g, hidden_domain=hidden_domain, seed=seed + 1)
        cbn = GroundTruthCbn(
            g, hidden_domain,
            tuple(with_point_masses(prior, seed + 2) for prior in cbn.hidden_priors),
            tuple(with_point_masses(table, seed + 3 + v) for v, table in enumerate(cbn.tables)),
        )
        self.assert_observational_equal(cbn, m, seed + 4)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 10]), st.integers(0, 10_000), st.integers(1, 300))
    def test_interventional_draws_equal_row_sampler(self, alphabet, seed, count):
        g = random_admg(5, 2, 2, alphabet_size=alphabet, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, smoothing=0.25, seed=seed + 1)
        model = learn_do(sample_observational(cbn, 400, seed=seed + 2), g, 0, 1, t=5)
        self.assert_interventional_equal(model, count, seed + 3)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 10_000), st.integers(1, 300))
    def test_exact_rows_point_masses_and_zeros_equal_row_sampler(self, alphabet, seed, count):
        g = random_admg(5, 2, 2, alphabet_size=alphabet, seed=seed, identifiable_for=0)
        cbn = random_cbn(g, hidden_domain=2, seed=seed + 1)
        model = exact_do_model(exact_observational(cbn), g, 0, seed % alphabet)
        self.assert_interventional_equal(model, count, seed + 2)
        pointed = dataclasses.replace(model, values=with_point_masses(model.values, seed + 3))
        self.assert_interventional_equal(pointed, count, seed + 4)


class TestRandomCbn:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.sampled_from([0.0, 0.25, 1.0]), st.integers(1, 8),
           st.integers(1, 3), st.integers(0, 10_000))
    def test_two_draws_equal_one_draw_per_row_set(self, alphabet, hidden_domain, smoothing, n, k, seed):
        """One draw of all priors and one of all table rows are the stream that
        one draw per prior and per table gave; k = 1 draws no bidirected edge."""
        g = random_admg(n, 2, k, alphabet_size=alphabet, seed=seed)
        got = random_cbn(g, hidden_domain=hidden_domain, smoothing=smoothing, seed=seed + 1)
        want = reference_random_cbn(g, hidden_domain, smoothing, seed + 1)
        assert all(map(np.array_equal, got.hidden_priors, want.hidden_priors))
        assert all(map(np.array_equal, got.tables, want.tables))
        assert model_to_json(got) == model_to_json(want)


class TestEffectiveParents:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 3), st.integers(1, 4), st.integers(0, 10_000))
    def test_equals_prefix_set_version(self, n, d, k, seed):
        g = random_admg(n, d, k, seed=seed)
        assert c_components(g).max_size <= k
        assert effective_parents(g) == reference_effective_parents(g)
