"""Property-based tests (hypothesis) on kernel and core invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import UrlPrefixIndex
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.localdb import LocalDatabase
from repro.core.records import BlockStatus, BlockType
from repro.core.voting import VotingLedger
from repro.simnet.engine import Environment
from repro.simnet.latency import LatencyModel


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                    max_size=30))
    def test_clock_reaches_latest_timer(self, delays):
        env = Environment()
        done = []

        def sleeper(delay):
            yield env.timeout(delay)
            done.append(delay)

        for delay in delays:
            env.process(sleeper(delay))
        env.run()
        assert sorted(done) == sorted(delays)
        assert env.now == pytest.approx(max(delays))

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=20))
    def test_event_order_is_time_order(self, delays):
        env = Environment()
        order = []

        def sleeper(delay):
            yield env.timeout(delay)
            order.append(env.now)

        for delay in delays:
            env.process(sleeper(delay))
        env.run()
        assert order == sorted(order)

    @given(
        st.recursive(
            st.floats(min_value=0.01, max_value=5.0),
            lambda children: st.lists(children, min_size=1, max_size=3),
            max_leaves=12,
        )
    )
    @settings(max_examples=40)
    def test_random_process_trees_complete(self, tree):
        """Arbitrary trees of spawn-and-join processes all terminate and
        the root's duration equals the tree's critical path."""
        env = Environment()

        def critical_path(node):
            if isinstance(node, float):
                return node
            return max(critical_path(child) for child in node)

        def run_node(node):
            if isinstance(node, float):
                yield env.timeout(node)
                return node
            children = [env.process(run_node(child)) for child in node]
            yield env.all_of(children)
            return None

        root = env.process(run_node(tree))
        env.run(until=root)
        assert env.now == pytest.approx(critical_path(tree))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20)
    def test_same_program_same_trace(self, seed):
        """Determinism: identical programs produce identical event traces."""
        import random

        def run_program():
            env = Environment()
            rng = random.Random(seed)
            trace = []

            def worker(name):
                for _ in range(3):
                    yield env.timeout(rng.uniform(0.1, 2.0))
                    trace.append((name, round(env.now, 9)))

            for name in range(4):
                env.process(worker(name))
            env.run()
            return trace

        assert run_program() == run_program()


class TestLatencyProperties:
    @given(
        st.floats(min_value=0.001, max_value=2.0),
        st.floats(min_value=0.001, max_value=2.0),
    )
    def test_combine_adds_rtts_commutatively(self, a, b):
        m1 = LatencyModel(base_rtt=a)
        m2 = LatencyModel(base_rtt=b)
        assert m1.combine(m2).base_rtt == pytest.approx(m2.combine(m1).base_rtt)
        assert m1.combine(m2).base_rtt == pytest.approx(a + b)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_combined_loss_in_unit_interval(self, la, lb):
        combined = LatencyModel(0.1, loss=la).combine(LatencyModel(0.1, loss=lb))
        assert 0.0 <= combined.loss < 1.0
        assert combined.loss >= max(la, lb) - 1e-12


_paths = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=4
).map(lambda segs: "/" + "/".join(segs) if segs else "/")


class TestPrefixIndexProperties:
    @given(st.sets(_paths, min_size=1, max_size=10), _paths)
    def test_longest_prefix_is_longest_matching_stored_path(self, stored, query):
        index = UrlPrefixIndex()
        for path in stored:
            index.add(f"http://x.example{path}")
        result = index.longest_prefix(f"http://x.example{query}")

        def is_prefix(prefix, path):
            if prefix == "/":
                return True
            return path == prefix or path.startswith(prefix + "/")

        matching = [p for p in stored if is_prefix(p, query)]
        if not matching:
            assert result is None
        else:
            expected = max(matching, key=len)
            assert result == f"http://x.example{expected}"

    @given(st.lists(_paths, min_size=1, max_size=15))
    def test_add_remove_roundtrip_empties_index(self, paths):
        index = UrlPrefixIndex()
        for path in paths:
            index.add(f"http://x.example{path}")
        for path in paths:
            index.remove(f"http://x.example{path}")
        assert len(index) == 0
        assert index.longest_prefix("http://x.example/a") is None


class TestVotingProperties:
    clients = st.sampled_from([f"c{i}" for i in range(5)])
    keys = st.sampled_from([(f"http://u{i}.example/", 1) for i in range(6)])

    @given(
        st.lists(
            st.tuples(clients, st.lists(keys, max_size=6, unique=True)),
            max_size=20,
        )
    )
    def test_vote_mass_equals_active_clients(self, operations):
        ledger = VotingLedger()
        for client, keys in operations:
            ledger.set_client_reports(client, keys)
        total = sum(
            ledger.stats(f"http://u{i}.example/", 1).votes for i in range(6)
        )
        assert total == pytest.approx(ledger.client_count())

    @given(
        st.lists(
            st.tuples(clients, st.lists(keys, max_size=6, unique=True)),
            max_size=20,
        )
    )
    def test_reporter_counts_consistent(self, operations):
        ledger = VotingLedger()
        for client, keys in operations:
            ledger.set_client_reports(client, keys)
        for i in range(6):
            url = f"http://u{i}.example/"
            stats = ledger.stats(url, 1)
            assert stats.reporters == len(ledger.reporters_for(url, 1))
            assert stats.votes <= stats.reporters + 1e-9


class TestServerDbProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # client index
                st.integers(min_value=0, max_value=9),  # url index
                st.integers(min_value=1, max_value=2),  # asn
            ),
            max_size=30,
        )
    )
    def test_download_is_union_of_posts_per_as(self, posts):
        server = ServerDB(entry_ttl=None)
        uuids = [server.register(now=float(i)) for i in range(4)]
        expected = {1: set(), 2: set()}
        for client_index, url_index, asn in posts:
            url = f"http://u{url_index}.example/"
            server.post_update(
                uuids[client_index],
                [ReportItem(url=url, asn=asn,
                            stages=(BlockType.BLOCK_PAGE,), measured_at=0.0)],
                now=1.0,
            )
            expected[asn].add(url)
        for asn in (1, 2):
            got = {e.url for e in server.blocked_for_as(asn, now=2.0)}
            assert got == expected[asn]


class TestLocalDbProperties:
    ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # site
            _paths,
            st.sampled_from(
                [None, BlockType.BLOCK_PAGE, BlockType.DNS_SERVFAIL]
            ),
        ),
        max_size=25,
    )

    @given(ops)
    def test_record_count_matches_index(self, operations):
        db = LocalDatabase(ttl=1e9)
        for site, path, block in operations:
            url = f"http://s{site}.example{path}"
            if block is None:
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            else:
                db.record_measurement(url, BlockStatus.BLOCKED, [block])
        assert db.record_count == len(db._index)

    @given(ops)
    def test_hostname_scoped_blocking_collapses_origin(self, operations):
        db = LocalDatabase(ttl=1e9)
        for site, path, block in operations:
            url = f"http://s{site}.example{path}"
            if block is None:
                db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            else:
                db.record_measurement(url, BlockStatus.BLOCKED, [block])
        # Any origin whose latest blocked evidence is hostname-scoped must
        # have at most one record (at the base URL).
        for site in range(3):
            records = [
                r for r in db.records()
                if r.url.startswith(f"http://s{site}.example")
            ]
            scoped = [r for r in records if r.hostname_scoped]
            for record in scoped:
                assert record.url == f"http://s{site}.example/"


class TestSyncWireFormatProperties:
    """The shipped columnar pull against two oracles.  Hypothesis drives
    random post/dissent/revoke/pull interleavings under a random
    confidence criterion and entry TTL, and after every pull demands

    - that the batch-fed view holds exactly the server's own answer,
      ``blocked_for_as(asn, now, criterion)`` (a pulled view equals the
      blocked list at the pulled version);
    - bit-identical client state to the row-object reference path in
      ``tests/reference/sync.py``, with equal per-pull ``transferred``.
    """

    # (op, client index, url index, asn offset): op 0-2 posts, 3
    # dissents, 4 pulls on both views, 5 revokes the client (its slot
    # re-registers under a fresh identity).
    ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=40,
    )

    @staticmethod
    def _row(entry):
        return (entry.url, entry.asn, tuple(entry.stages), entry.measured_at,
                entry.posted_at, entry.first_measured_at, entry.last_uuid)

    @classmethod
    def _state(cls, view):
        return (
            view.version,
            view.synced_asn,
            [cls._row(e) for e in view._entries.values()],
        )

    @given(
        operations=ops,
        min_reporters=st.sampled_from([1, 2]),
        min_votes=st.sampled_from([0.0, 0.4]),
        entry_ttl=st.sampled_from([None, 30.0]),
    )
    @settings(max_examples=60)
    def test_batch_and_row_merges_identical(
        self, operations, min_reporters, min_votes, entry_ttl
    ):
        from repro.core.reporting import GlobalView
        from tests.reference.sync import apply_sync, sync_for_as

        criterion = dict(min_reporters=min_reporters, min_votes=min_votes)
        server = ServerDB(entry_ttl=entry_ttl)
        uuids = [server.register(now=float(i)) for i in range(4)]
        row_views = {1: GlobalView(), 2: GlobalView()}
        batch_views = {1: GlobalView(), 2: GlobalView()}

        def pull(asn, now):
            rows, batches = row_views[asn], batch_views[asn]
            result = sync_for_as(
                server, asn, now, since_version=rows.since_version(asn),
                **criterion,
            )
            apply_sync(rows, result, now)
            batch = server.sync_batch_for_as(
                asn, now, since_version=batches.since_version(asn),
                **criterion,
            )
            batches.apply_batch(batch, now)
            assert batch.transferred == result.transferred
            assert self._state(batches) == self._state(rows)
            served = server.blocked_for_as(asn, now, **criterion)
            assert {
                url: self._row(entry)
                for url, entry in batches._entries.items()
            } == {entry.url: self._row(entry) for entry in served}

        now = 10.0
        for op, client_index, url_index, asn_offset in operations:
            now += 1.0
            asn, url = 1 + asn_offset, f"http://u{url_index}.example/"
            if op <= 2:
                stages = (
                    (BlockType.BLOCK_PAGE,)
                    if op == 0
                    else (BlockType.DNS_TIMEOUT, BlockType.BLOCK_PAGE)
                )
                server.post_update(
                    uuids[client_index],
                    [ReportItem(url=url, asn=asn, stages=stages,
                                measured_at=now - 0.5)],
                    now=now,
                )
            elif op == 3:
                server.post_dissent(uuids[client_index], url, asn, now=now)
            elif op == 4:
                pull(asn, now)
            else:
                server.revoke(uuids[client_index])
                uuids[client_index] = server.register(now=now)
        now += 1.0
        for asn in (1, 2):
            # One final pull so both views see the terminal server state.
            pull(asn, now)


class TestGroupedSweepProperties:
    """The group-applied fleet pull sweep is an optimization of the
    per-client reference loop (``tests/reference/fleet.py``) — hypothesis
    drives both through random cohort shapes and wave/pull schedules and
    demands the same :class:`FleetMetrics`, the same per-client record
    arrays, and the same server-side serve counters (acceptance for
    hot-path round 4).
    """

    @staticmethod
    def _storm(cohort_cls, seed, n_ases, clients, urls, frac, interval,
               tick_div, wave_at, horizon_intervals):
        server = ServerDB(entry_ttl=None)
        env = Environment()
        cohort = cohort_cls(
            server,
            asns=[41000 + i for i in range(n_ases)],
            clients_per_as=clients,
            seed=seed,
            reporter_fraction=frac,
            pull_interval=interval,
            tick=interval / tick_div,
        )

        def driver():
            yield env.timeout(wave_at)
            cohort.start_wave(env.now, urls_per_as=urls)

        env.process(driver())
        stop_at = wave_at + horizon_intervals * interval + cohort.tick
        env.process(cohort.run(env, stop_at))
        env.run()
        cohort.finalize()
        return cohort

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n_ases=st.integers(min_value=1, max_value=3),
        clients=st.integers(min_value=1, max_value=25),
        urls=st.integers(min_value=1, max_value=6),
        frac=st.floats(min_value=0.05, max_value=1.0),
        interval=st.floats(min_value=60.0, max_value=900.0),
        tick_div=st.integers(min_value=3, max_value=40),
        wave_frac=st.floats(min_value=0.0, max_value=2.0),
        horizon_intervals=st.floats(min_value=0.25, max_value=2.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_sweep_bit_identical_to_spec(
        self, seed, n_ases, clients, urls, frac, interval, tick_div,
        wave_frac, horizon_intervals,
    ):
        args = (seed, n_ases, clients, urls, frac, interval, tick_div,
                wave_frac * interval, horizon_intervals)
        from repro.core.fleet import ClientCohort
        from tests.reference.fleet import SpecCohort

        spec = self._storm(SpecCohort, *args)
        grouped = self._storm(ClientCohort, *args)
        g_summary, s_summary = grouped.metrics.summary(), spec.metrics.summary()
        assert g_summary.keys() == s_summary.keys()
        for name in s_summary:
            g_val, s_val = g_summary[name], s_summary[name]
            if isinstance(s_val, float) and math.isnan(s_val):
                # Unconverged cohorts report NaN aggregates on both sides.
                assert math.isnan(g_val), name
            else:
                assert g_val == s_val, name
        assert grouped.metrics.convergence_by_as == \
            spec.metrics.convergence_by_as
        assert grouped.metrics.pending_by_as == spec.metrics.pending_by_as
        # Server-side serve/build accounting must agree too.
        assert grouped.server.full_syncs_served == spec.server.full_syncs_served
        assert grouped.server.delta_syncs_served == \
            spec.server.delta_syncs_served
        # Per-client record arrays: same layout, same values, bit for bit
        # (the float pull schedule advances by the identical additions).
        for ga, sa in zip(grouped.shards, spec.shards):
            assert ga.versions == sa.versions
            assert ga.next_pull_at == sa.next_pull_at
            assert ga.bytes_received == sa.bytes_received
            assert ga.rows_received == sa.rows_received
            assert ga.pending == sa.pending
            assert (ga.pulls, ga.pull_ptr) == (sa.pulls, sa.pull_ptr)
            assert ga.unconverged == sa.unconverged
            assert ga.converged_at == sa.converged_at


class TestCorpusSamplingProperties:
    """``Corpus.sample_site`` draws through precomputed cumulative Zipf
    weights; it must pick the same sites as ``rng.choices`` over the
    plain weights and leave the RNG in the same state."""

    @given(
        n_sites=st.integers(min_value=1, max_value=60),
        corpus_seed=st.integers(min_value=0, max_value=2**16),
        rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
        zipf_exponent=st.floats(min_value=0.0, max_value=3.0),
        draws=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_site_matches_weighted_choices(
        self, n_sites, corpus_seed, rng_seed, zipf_exponent, draws
    ):
        import random

        from repro.workloads.corpus import Corpus, build_corpus

        built = build_corpus(n_sites=n_sites, seed=corpus_seed)
        corpus = Corpus(
            sites=built.sites,
            cdn_hostnames=built.cdn_hostnames,
            zipf_exponent=zipf_exponent,
        )
        weights = [1.0 / (site.rank ** zipf_exponent) for site in corpus.sites]
        fast, reference = random.Random(rng_seed), random.Random(rng_seed)
        got = [corpus.sample_site(fast) for _ in range(draws)]
        want = [
            reference.choices(corpus.sites, weights=weights)[0]
            for _ in range(draws)
        ]
        assert [site.rank for site in got] == [site.rank for site in want]
        assert fast.getstate() == reference.getstate()
