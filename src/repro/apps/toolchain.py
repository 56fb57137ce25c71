"""Build-and-stage helpers for the guest application fleet.

Building a binary means compiling MiniC, assembling, and linking
against libc — deterministic and side-effect free, so images are
memoized process-wide.  :func:`stage_*` helpers put a binary plus its
config files onto a concrete kernel and return the booted process.
"""

from __future__ import annotations

from functools import lru_cache

from ..binfmt.self_format import SelfImage
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from . import httpd_lighttpd, httpd_nginx, kvstore
from .libc import build_libc
from .spec import get_benchmark


@lru_cache(maxsize=None)
def libc_image() -> SelfImage:
    return build_libc()


@lru_cache(maxsize=None)
def redis_image() -> SelfImage:
    return kvstore.build_miniredis(libc_image())


@lru_cache(maxsize=None)
def lighttpd_image() -> SelfImage:
    return httpd_lighttpd.build_minilight(libc_image())


@lru_cache(maxsize=None)
def nginx_image() -> SelfImage:
    return httpd_nginx.build_mininginx(libc_image())


@lru_cache(maxsize=None)
def spec_image(name: str) -> SelfImage:
    return get_benchmark(name).build(libc_image())


# ----------------------------------------------------------------------
# staging helpers


def stage_redis(kernel: Kernel, run_to_ready: bool = True) -> Process:
    """Register, configure and boot miniredis on ``kernel``."""
    kernel.register_binary(libc_image())
    kernel.register_binary(redis_image())
    kvstore.install_default_config(kernel.fs)
    proc = kernel.spawn(kvstore.REDIS_BINARY)
    if run_to_ready:
        ready = kernel.run_until(
            lambda: kvstore.READY_LINE in proc.stdout_text(),
            max_instructions=5_000_000,
        )
        if not ready:
            raise RuntimeError("miniredis failed to reach ready state")
    return proc


def stage_lighttpd(kernel: Kernel, run_to_ready: bool = True) -> Process:
    """Register, configure and boot minilight on ``kernel``."""
    kernel.register_binary(libc_image())
    kernel.register_binary(lighttpd_image())
    httpd_lighttpd.install_default_config(kernel.fs)
    proc = kernel.spawn(httpd_lighttpd.LIGHTTPD_BINARY)
    if run_to_ready:
        ready = kernel.run_until(
            lambda: httpd_lighttpd.READY_LINE in proc.stdout_text(),
            max_instructions=5_000_000,
        )
        if not ready:
            raise RuntimeError("minilight failed to reach ready state")
    return proc


def stage_nginx(kernel: Kernel, run_to_ready: bool = True) -> Process:
    """Register, configure and boot mininginx (master + worker)."""
    kernel.register_binary(libc_image())
    kernel.register_binary(nginx_image())
    httpd_nginx.install_default_config(kernel.fs)
    master = kernel.spawn(httpd_nginx.NGINX_BINARY)
    if run_to_ready:
        def worker_running() -> bool:
            return any(
                httpd_nginx.WORKER_LINE in p.stdout_text()
                for p in kernel.processes.values()
                if p.ppid == master.pid
            )

        ready = kernel.run_until(
            lambda: httpd_nginx.READY_LINE in master.stdout_text()
            and worker_running(),
            max_instructions=8_000_000,
        )
        if not ready:
            raise RuntimeError("mininginx failed to reach ready state")
    return master


def nginx_worker(kernel: Kernel, master: Process) -> Process:
    """The (live) worker process of a booted mininginx master."""
    for proc in kernel.processes.values():
        if proc.ppid == master.pid and proc.alive:
            return proc
    raise RuntimeError("no live mininginx worker")


def stage_spec(
    kernel: Kernel,
    name: str,
    iterations: int | None = None,
    run_to_init: bool = True,
) -> Process:
    """Register and boot a SPEC-like benchmark; stops at init-done."""
    from .spec.common import INIT_DONE_LINE

    bench = get_benchmark(name)
    kernel.register_binary(libc_image())
    kernel.register_binary(spec_image(name))
    argv = [bench.binary]
    if iterations is not None:
        argv.append(str(iterations))
    proc = kernel.spawn(bench.binary, argv)
    if run_to_init:
        ready = kernel.run_until(
            lambda: INIT_DONE_LINE in proc.stdout_text(),
            max_instructions=10_000_000,
        )
        if not ready:
            raise RuntimeError(f"{name} did not finish initialization")
    return proc
