#!/usr/bin/env python
"""Crowdsourcing in action: measurements make everyone faster (§4.2, §5).

Three users behind the same censoring ISP install C-Saw in sequence.
User 1 pays the discovery cost (redundant requests + in-line detection);
users 2 and 3 download the blocked list at install time and circumvent
immediately.  A malicious reporter then floods the global DB with fake
entries; the voting-based confidence filter keeps them out of honest
clients' views.

Run:  python examples/crowdsourced_measurement.py
"""

from repro.core import CSawClient, ReportItem, ServerDB
from repro.core.records import BlockType
from repro.scenarios import ScenarioCompiler, pakistan_spec
from repro.scenarios.library import ISP_A_ASN


def main() -> None:
    scenario = ScenarioCompiler().compile(
        pakistan_spec(seed=99, with_proxy_fleet=False)
    )
    world = scenario.world
    server = ServerDB()
    url = scenario.spec.urls["youtube"]

    users = [
        CSawClient(
            world,
            f"user-{index}",
            [scenario.isps[ISP_A_ASN]],
            transports=scenario.make_transports(f"user-{index}"),
            server_db=server,
        )
        for index in range(3)
    ]

    def session():
        print("=== user-0 discovers the blocking ===")
        yield from users[0].install()
        response = yield from users[0].request(url)
        yield response.measurement_process
        print(
            f"  user-0: via {response.path}, plt={response.plt:.2f}s "
            f"(paid the discovery cost)"
        )
        posted = yield from users[0].reporting.post_reports(users[0].new_ctx())
        print(f"  user-0 posted {posted} report(s)\n")

        print("=== users 1 and 2 benefit from the crowd ===")
        for user in users[1:]:
            yield from user.install()  # pulls the blocked list
            entry = user.global_view.lookup(url)
            print(
                f"  {user.name}: learned at install that {entry.url} is "
                f"blocked ({','.join(s.value for s in entry.stages)})"
            )
            response = yield from user.request(url)
            yield response.measurement_process
            print(
                f"  {user.name}: via {response.path}, plt={response.plt:.2f}s "
                f"(no discovery cost)"
            )
        print()

        print("=== a malicious reporter floods the DB ===")
        evil = server.register(now=world.env.now)
        fakes = [
            ReportItem(
                url=f"http://innocent-{i}.example/",
                asn=ISP_A_ASN,
                stages=(BlockType.BLOCK_PAGE,),
                measured_at=world.env.now,
            )
            for i in range(100)
        ]
        server.post_update(evil, fakes, now=world.env.now)
        naive = server.blocked_for_as(ISP_A_ASN, now=world.env.now)
        careful = server.blocked_for_as(
            ISP_A_ASN, now=world.env.now, min_votes=0.05
        )
        print(f"  naive download: {len(naive)} entries (poisoned!)")
        print(
            f"  with the voting filter (min_votes=0.05): {len(careful)} "
            f"entries — {[e.url for e in careful]}"
        )
        stats = server.stats_for(url, ISP_A_ASN)
        print(
            f"  votes for the real entry: s={stats.votes:.2f} from "
            f"n={stats.reporters} reporter(s)"
        )

    world.run_process(session())


if __name__ == "__main__":
    main()
