"""A real ``python -m repro serve --ledger`` child on ephemeral ports."""

import os
import subprocess
import sys

import repro
from repro.serve.client import ServeClient

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def child_env() -> dict:
    """The environment a ``python -m repro`` child runs the sources with."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")


class ServerProcess:
    """One ``repro serve --ledger`` child, plus any extra CLI arguments.

    The constructor returns once the child has printed its "NDJSON on"
    banner; leaving the ``with`` block kills a child still running.
    """

    def __init__(self, ledger_path, stderr_path, *extra_args: str) -> None:
        with open(stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0", "--metrics-port", "0",
                    "--ledger", str(ledger_path), *extra_args,
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                stdin=subprocess.DEVNULL,
                env=child_env(),
            )
        banner = self.process.stdout.readline().decode()
        if "NDJSON on" not in banner:
            self.process.kill()
            self.process.wait(timeout=30)
            raise RuntimeError(
                f"server did not start: {banner!r} "
                f"{stderr_path.read_text()!r}"
            )
        host, _, port = banner.rsplit(" ", 1)[1].strip().rpartition(":")
        self.address = (host, int(port))

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.process.poll() is None:  # a test failed before ending it
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()

    def client(self) -> ServeClient:
        return ServeClient(*self.address)

    def end(self, signum: int) -> int:
        self.process.send_signal(signum)
        return self.process.wait(timeout=30)
