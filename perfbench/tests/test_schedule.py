"""The open-loop generator sends the right number of requests at the
right due times."""

import json
import os
import socket
import threading

import inputs
import serve_zipf


def test_schedule_spacing():
    due = inputs.schedule(16, 200)
    assert len(due) == 200
    assert due[0] == 0.0
    assert abs(due[-1] - 199 / 16.0) < 1e-12
    gaps = {round(b - a, 12) for a, b in zip(due, due[1:])}
    assert gaps == {round(1 / 16.0, 12)}


def test_ladder_is_geometric_from_16_to_615():
    assert inputs.ladder() == [16, 24, 36, 54, 81, 122, 182, 273, 410, 615]


def test_zipf_stream_has_the_exact_first_seen_share():
    pool, stream = inputs.serve_stream(7, 208)
    assert len(stream) == 208
    assert sorted(set(stream)) == list(range(len(pool)))
    assert len(pool) == round(inputs.FIRST_SEEN_SHARE * 208)


class _FakeDaemon:
    """A socket server answering every submit at once, so the test
    sees the generator alone."""

    def __init__(self, path):
        self.socket = path
        self.submits = []
        self.server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.server.bind(path)
        self.server.listen(8)
        self.threads = []
        acceptor = threading.Thread(target=self._accept, daemon=True)
        acceptor.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.server.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                msg = json.loads(line)
                if msg["op"] == "stats":
                    reply = {"type": "stats", "queue_depth": 0,
                             "store": {"hits": 0, "misses": 0}}
                else:
                    self.submits.append(msg["id"])
                    reply = {"type": "result", "id": msg["id"],
                             "status": "sat", "witness": "",
                             "elapsed": 0.0, "latency_s": 0.0}
                conn.sendall((json.dumps(reply) + "\n").encode())

    def stats(self):
        conn = serve_zipf.Connection(self.socket)
        try:
            return conn.request({"op": "stats"}, "stats")
        finally:
            conn.close()

    def peak_rss_mb(self):
        return 0.0

    def close(self):
        self.server.close()


def test_generator_sends_every_request_on_time(tmp_path):
    path = os.path.join(str(tmp_path), "s")
    daemon = _FakeDaemon(path)
    try:
        pool = [inputs.Query("q", "t", "NB", "pattern", "a", None)]
        rung = serve_zipf.Rung(40, [0] * 60)
        serve_zipf.run_rung(daemon, pool, rung)
    finally:
        daemon.close()
    assert sorted(daemon.submits) == sorted("r%d" % i for i in range(60))
    assert rung.due == inputs.schedule(40, 60)
    lateness = [sent - due for sent, due in zip(rung.sent, rung.due)]
    assert min(lateness) >= 0.0
    assert max(lateness) < 0.05
    assert rung.errors == 0
    assert all(stamp is not None for stamp in rung.received)
