"""How the files beside this script were made (not a test).

An R4-style run of the durable broker **as of PR 16** (commit 13459f9,
the last one before the broker's state / protocol split): retained
topics, plain and acked subscriptions, an unsubscribe, pending
deliveries with and without a ``pub_key``, a failed publication, dead
letters, a drain, and a snapshot written mid-run so the WAL holds a
tail.  ``expected_snapshot.json`` is what *that commit* recovers from
``broker.wal`` + ``broker.snap``; ``tests/test_broker_state.py``
asserts every later broker recovers the same.

    PYTHONPATH=<checkout of 13459f9>/src python make_fixture.py <out dir>
"""
import json
import os
import sys

from repro.middleware.broker import BROKER_PORT, Broker
from repro.middleware.peer import MiddlewarePeer
from repro.network.scheduler import Scheduler
from repro.network.transport import LatencyModel, Network
from repro.network.webservice import HttpClient
from repro.storage.durability import HubConfig

out = sys.argv[1]
os.makedirs(out, exist_ok=True)
for name in ("broker.wal", "broker.snap"):
    if os.path.exists(os.path.join(out, name)):
        os.remove(os.path.join(out, name))


def config():
    return HubConfig(wal_path=os.path.join(out, "broker.wal"),
                     snapshot_path=os.path.join(out, "broker.snap"),
                     snapshot_period=10_000.0)


net = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
broker = Broker(net.add_host("broker"), delivery_ack_timeout=1.0,
                max_delivery_attempts=3, dead_letter_capacity=4,
                durability=config())
run = net.scheduler.run_for

reliable = MiddlewarePeer(net.add_host("pub-r"), "broker", publish_buffer=64)
plain = MiddlewarePeer(net.add_host("pub-p"), "broker")

# plain + healthy acked subscribers through the real peer
dash = MiddlewarePeer(net.add_host("dash"), "broker")
dash.subscribe("area/#", lambda e: None)
gone = dash.subscribe("area/b9/#", lambda e: None)
healthy = MiddlewarePeer(net.add_host("healthy"), "broker")
healthy.subscribe("area/+/t", lambda e: None, ack=True)


def scripted(name, pattern, on_event):
    host = net.add_host(name)

    def handler(message):
        if message.payload.get("kind") == "event" \
                and "delivery_id" in message.payload:
            on_event(host, message.payload)

    host.bind("inbox", handler)
    host.send("broker", BROKER_PORT, {"verb": "subscribe", "pattern": pattern,
                                      "port": "inbox", "ack": True,
                                      "token": 7})
    return host


def nack(poison):
    def on_event(host, event):
        host.send("broker", BROKER_PORT, {"verb": "delivery_nack",
                                          "delivery_id": event["delivery_id"],
                                          "poison": poison})
    return on_event


scripted("poison", "area/b2/#", nack(True))      # -> poison dead letters
scripted("busy", "area/b3/#", nack(False))       # -> pending forever
scripted("silent", "area/b3/#", lambda h, e: None)  # -> timeout dead letter
scripted("mute", "area/b4/#", lambda h, e: None)  # -> pending at the crash
run(1.0)
gone.unsubscribe()
run(1.0)

reliable.publish("area/b1/t", {"v": 1}, retain=True)
plain.publish("area/b1/h", {"v": 2}, retain=True)
reliable.publish("area/b2/t", {"v": 3}, retain=True)   # poison -> DLQ
plain.publish("area/b2/h", {"v": 4})                   # poison -> DLQ
run(6.0)
# drain what is there so a dlq_drain record exists before the snapshot
HttpClient(net.add_host("ops")).post(broker.uri + "deadletter/drain")
run(1.0)
reliable.publish("area/b2/t", {"v": 5}, retain=True)   # new dead letter
# two acked subscribers, one silent: after its timeout dead-letter the
# publication is *failed* while the busy one still holds it pending
reliable.publish("area/b3/t", {"v": 6})
run(6.0)
assert any(p.failed for p in broker._pending_pubs.values())
broker.write_snapshot()

# ---- WAL tail past the snapshot ------------------------------------------
late = MiddlewarePeer(net.add_host("late"), "broker")
late.subscribe("area/b1/#", lambda e: None, ack=True)
going = dash.subscribe("area/b8/#", lambda e: None)
run(1.0)
going.unsubscribe()
reliable.publish("area/b1/t", {"v": 7}, retain=True)   # acked + settled
plain.publish("area/b4/h", {"v": 8})                   # pending, no pub_key
reliable.publish("area/b4/t", {"v": 9}, retain=True)   # pending, pub_key
plain.publish("area/b2/h", {"v": 10})                  # another dead letter
run(1.5)

live = broker.snapshot()
ops = [r["op"] for r in broker.wal.records()]
print("wal tail ops:", ops)
print("live: subs", len(live["subs"]), "deliveries", len(live["deliveries"]),
      "failed_pubs", live["failed_pubs"], "dlq", len(live["dead_letters"]),
      "retained", len(live["retained"]))
print("pub_keys:", [d["pub_key"] for d in live["deliveries"]])
print("attempts:", [(d["attempts"], d["poison_count"]) for d in live["deliveries"]])
broker.journal.close()

# what the parent recovers from exactly these files
net2 = Network(Scheduler(), latency=LatencyModel(jitter=0.0))
fresh = Broker(net2.add_host("broker"), delivery_ack_timeout=1.0,
               max_delivery_attempts=3, dead_letter_capacity=4,
               durability=config())
restored = fresh.recover()
expected = fresh.snapshot()
fresh.journal.close()
with open(os.path.join(out, "expected_snapshot.json"), "w") as handle:
    json.dump({"restored": restored, "snapshot": expected}, handle,
              indent=1, sort_keys=True)
    handle.write("\n")
print("restored", restored)
