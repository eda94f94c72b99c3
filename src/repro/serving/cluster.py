"""``ServingCluster``: boot a whole serving topology on localhost.

The harness behind the differential tests and the ``repro serve`` CLI:
given a simulated :class:`~repro.distsim.cluster.Cluster`, it boots one
site server per site (optionally replicated), a gateway in front of
them, and hands out clients/sessions pointed at real localhost ports.

Two site modes:

* ``"inline"`` (default) -- every site server runs on one background
  event-loop thread inside this process, over real TCP sockets.  Fast
  enough for property tests that boot hundreds of topologies, yet the
  bytes genuinely cross the loopback interface frame by frame.
* ``"process"`` -- each site is a real child process
  (``python -m repro.serving.site_server``); the boot-two-sites smoke
  and the CLI use this.

Fault hooks: ``proxy_factory`` interposes a (test-supplied) TCP proxy
between the coordinator and each site, ``kill_site`` /
``restart_site`` crash and resurrect individual sites -- a restarted
site rebinds its old port and comes back *empty*, exercising the
coordinator's re-push path.

Teardown is paranoid by design: ``close()`` is idempotent, bounded by
timeouts, and snapshots any asyncio tasks still pending on the serving
loop into :attr:`leaked_tasks` so the lifecycle tests can assert the
tier cleans up after itself.
"""

from __future__ import annotations

import asyncio
import logging
import os
import selectors
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.distsim.cluster import Cluster
from repro.obs.logging import (
    JsonLineHandler,
    emit as obs_emit,
    event_log,
    install_event_log,
    uninstall_event_log,
)
from repro.serving.client import GatewayClient
from repro.serving.coordinator import SiteEndpoint
from repro.serving.gateway import Gateway
from repro.serving.site_server import SiteServer

logger = logging.getLogger("repro.serving.cluster")

#: Environment variable: when set, serving components append their logs
#: under this directory (the CI job uploads it on failure).
LOG_DIR_ENV = "REPRO_SERVING_LOG_DIR"

_RUN_TIMEOUT = 30.0


class _ProcessSite:
    """Handle on one site-server child process."""

    def __init__(self, name: str, host: str, port: int, proc: subprocess.Popen) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.proc = proc

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    @property
    def running(self) -> bool:
        return self.proc.poll() is None


def _spawn_site_process(
    name: str, host: str, port: int, boot_timeout: float = 20.0
) -> _ProcessSite:
    """Start ``python -m repro.serving.site_server`` and harvest its port."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "repro.serving.site_server",
        "--host",
        host,
        "--port",
        str(port),
        "--name",
        name,
    ]
    log_dir = os.environ.get(LOG_DIR_ENV)
    if log_dir:
        os.makedirs(log_dir, exist_ok=True)
        command += ["--log-dir", log_dir]
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    # Read the "SITE <name> <host> <port>" banner under a hard deadline
    # (a site that never boots must fail the test, not hang it).
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + boot_timeout
    line = ""
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"site process {name} exited with {proc.returncode}")
            if selector.select(timeout=0.2):
                line = proc.stdout.readline()
                break
    finally:
        selector.close()
    parts = line.split()
    if len(parts) != 4 or parts[0] != "SITE":
        proc.kill()
        raise RuntimeError(f"site process {name} printed no boot banner (got {line!r})")
    return _ProcessSite(name, parts[2], int(parts[3]), proc)


class ServingCluster:
    """Coordinator + gateway + N site servers on localhost ports."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        replicas: int = 1,
        site_mode: str = "inline",
        host: str = "127.0.0.1",
        gateway_port: int = 0,
        max_inflight: int = 4,
        max_queue: int = 8,
        site_timeout: float = 10.0,
        default_engine: str = "parbox",
        proxy_factory: Optional[Callable] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if site_mode not in ("inline", "process"):
            raise ValueError(f"unknown site_mode {site_mode!r}")
        self.cluster = cluster
        self.replicas = replicas
        self.site_mode = site_mode
        self.host = host
        self.gateway_port = gateway_port
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.site_timeout = site_timeout
        self.default_engine = default_engine
        #: ``proxy_factory(site_id, target_host, target_port)`` returns
        #: an object with ``host``/``port`` attributes and async
        #: ``start()``/``stop()``; the coordinator is pointed at the
        #: proxy so tests can mangle frames in transit.
        self.proxy_factory = proxy_factory
        self.gateway: Optional[Gateway] = None
        #: ``site_id -> [server handle per replica]`` (SiteServer or
        #: _ProcessSite, by mode).
        self.sites: dict[str, list] = {}
        self.proxies: list = []
        #: Tasks still pending on the serving loop at close time.
        self.leaked_tasks: list[str] = []
        #: ``server name -> OS pid`` recorded at every boot (inline sites
        #: share this process's pid), so failure artifacts are
        #: attributable even when a site dies before logging anything.
        self.site_pids: dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._log_handler: Optional[logging.Handler] = None
        self._installed_event_log = False
        self._closed = False

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def run(self, coro, timeout: float = _RUN_TIMEOUT):
        """Run a coroutine on the serving loop from the caller thread."""
        if self._loop is None:
            raise RuntimeError("serving cluster is not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=timeout)

    def _start_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=runner, name="repro-serving-loop", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=10)

    # ------------------------------------------------------------------
    # Boot / teardown
    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        if self._loop is not None:
            raise RuntimeError("serving cluster already started")
        log_dir = os.environ.get(LOG_DIR_ENV)
        if log_dir:
            # JSON-lines event logs, one file per component, flushed per
            # line and size-rotated (the old plain FileHandler buffered
            # and never rotated, so crashed runs uploaded empty files).
            if event_log() is None:
                install_event_log(log_dir)
                self._installed_event_log = True
            self._log_handler = JsonLineHandler(event_log())
            serving_logger = logging.getLogger("repro.serving")
            serving_logger.addHandler(self._log_handler)
            serving_logger.setLevel(logging.INFO)
        self._start_loop()
        try:
            endpoints: dict[str, list[SiteEndpoint]] = {}
            for site_id in sorted(self.cluster.source_tree().sites()):
                servers, eps = [], []
                for replica in range(self.replicas):
                    name = site_id if self.replicas == 1 else f"{site_id}r{replica}"
                    server, host, port = self._boot_site(name)
                    servers.append(server)
                    if self.proxy_factory is not None:
                        proxy = self.proxy_factory(site_id, host, port)
                        self.run(proxy.start())
                        self.proxies.append(proxy)
                        host, port = proxy.host, proxy.port
                    eps.append(SiteEndpoint(host, port))
                self.sites[site_id] = servers
                endpoints[site_id] = eps
            self.gateway = Gateway(
                self.cluster,
                endpoints,
                host=self.host,
                port=self.gateway_port,
                max_inflight=self.max_inflight,
                max_queue=self.max_queue,
                site_timeout=self.site_timeout,
                default_engine=self.default_engine,
            )
            self.run(self.gateway.start())
        except BaseException:
            self.close()
            raise
        return self

    def _boot_site(self, name: str, port: int = 0):
        """Start one site server; returns ``(handle, host, port)``."""
        if self.site_mode == "inline":
            server = SiteServer(name=name, host=self.host, port=port)
            self.run(server.start())
            handle, host, bound = server, server.host, server.port
            pid = os.getpid()
        else:
            site = _spawn_site_process(name, self.host, port)
            handle, host, bound = site, site.host, site.port
            pid = site.proc.pid
        self.site_pids[name] = pid
        obs_emit(
            "cluster",
            "site-boot",
            site=name,
            pid=pid,
            host=host,
            port=bound,
            mode=self.site_mode,
        )
        return handle, host, bound

    @property
    def address(self) -> str:
        if self.gateway is None:
            raise RuntimeError("serving cluster is not started")
        return f"{self.gateway.host}:{self.gateway.port}"

    def client(self, timeout: float = 30.0) -> GatewayClient:
        return GatewayClient(self.gateway.host, self.gateway.port, timeout=timeout)

    def session(self, engine: str = "", **kwargs):
        """A :class:`~repro.core.session.QuerySession` over this gateway."""
        from repro.core.session import QuerySession  # local: avoids an import cycle

        spec = f"net:{self.address}" + (f"/{engine}" if engine else "")
        return QuerySession(None, engine=spec, **kwargs)

    # ------------------------------------------------------------------
    # Harness hooks (load tests, fault injection)
    # ------------------------------------------------------------------
    def set_site_delay(self, seconds: float, site_id: Optional[str] = None) -> None:
        """Add an artificial per-request service delay to site servers.

        The load harness's overload knob: with every site ``seconds``
        slower, arrival rates beyond ``max_inflight + max_queue`` x
        service rate deterministically shed at the gateway.  Inline
        mode only -- process sites are separate interpreters and do not
        expose the hook.
        """
        if self.site_mode != "inline":
            raise RuntimeError("set_site_delay requires site_mode='inline'")
        for current_id, servers in self.sites.items():
            if site_id is not None and current_id != site_id:
                continue
            for server in servers:
                server.delay_seconds = seconds

    def scrape(self) -> dict:
        """The gateway's metrics-registry snapshot, via a loopback client."""
        with self.client(timeout=10.0) as client:
            return client.metrics().snapshot

    def kill_site(self, site_id: str, replica: int = 0) -> None:
        """Crash one site server (connections reset, port freed)."""
        server = self.sites[site_id][replica]
        if self.site_mode == "inline":
            self.run(server.stop())
        else:
            server.kill()
        logger.info("killed site %s replica %d", site_id, replica)

    def restart_site(self, site_id: str, replica: int = 0) -> None:
        """Boot a fresh, *empty* server on the killed replica's old port.

        The coordinator's next request gets ``unknown-fragment``,
        re-pushes the site's fragments and proceeds -- no operator
        action, which is the recovery property the differential tests
        exercise.
        """
        old = self.sites[site_id][replica]
        name = getattr(old, "name", site_id)
        server, _, _ = self._boot_site(name, port=old.port)
        self.sites[site_id][replica] = server
        logger.info("restarted site %s replica %d on port %d", site_id, replica, old.port)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _pending_tasks(self) -> list[str]:
        tasks = [
            task
            for task in asyncio.all_tasks(self._loop)
            if not task.done() and task is not asyncio.current_task(self._loop)
        ]
        return [repr(task) for task in tasks]

    def close(self) -> None:
        """Stop everything; record still-pending loop tasks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.gateway is not None and self._loop is not None:
                try:
                    self.run(self.gateway.stop())
                except Exception as error:  # noqa: BLE001 - teardown best effort
                    logger.warning("gateway stop failed: %s", error)
            for servers in self.sites.values():
                for server in servers:
                    try:
                        if self.site_mode == "inline":
                            if server.running:
                                self.run(server.stop())
                        else:
                            server.kill()
                    except Exception as error:  # noqa: BLE001 - teardown best effort
                        logger.warning("site stop failed: %s", error)
            for proxy in self.proxies:
                try:
                    self.run(proxy.stop())
                except Exception as error:  # noqa: BLE001 - teardown best effort
                    logger.warning("proxy stop failed: %s", error)
            if self._loop is not None:
                future = asyncio.run_coroutine_threadsafe(
                    asyncio.sleep(0), self._loop
                )
                try:
                    future.result(timeout=5)
                    self.leaked_tasks = [
                        description
                        for description in self._run_sync(self._pending_tasks)
                    ]
                except Exception:  # noqa: BLE001 - loop already wedged
                    pass
        finally:
            loop, self._loop = self._loop, None
            if loop is not None:
                loop.call_soon_threadsafe(loop.stop)
                if self._thread is not None:
                    self._thread.join(timeout=10)
                loop.close()
            if self._log_handler is not None:
                logging.getLogger("repro.serving").removeHandler(self._log_handler)
                self._log_handler.close()
                self._log_handler = None
            if self._installed_event_log:
                # Only tear down a log we installed (nested harnesses
                # must not close each other's streams).
                uninstall_event_log()
                self._installed_event_log = False

    def _run_sync(self, fn):
        """Run a plain callable on the loop thread and wait for it."""
        done = threading.Event()
        box: list = []

        def call() -> None:
            try:
                box.append(fn())
            finally:
                done.set()

        self._loop.call_soon_threadsafe(call)
        done.wait(timeout=5)
        return box[0] if box else []

    def __enter__(self) -> "ServingCluster":
        return self.start() if self._loop is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("up" if self._loop else "new")
        return (
            f"<ServingCluster {len(self.sites)} site(s) x{self.replicas} "
            f"{self.site_mode} {state}>"
        )


__all__ = ["ServingCluster", "LOG_DIR_ENV"]
