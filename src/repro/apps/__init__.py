"""Guest applications: libc, web servers, key-value store, SPEC-like suite."""

from .libc import LIBC_EXPORTS, LIBC_NAME, build_libc
from .kvstore import (
    REDIS_BINARY,
    REDIS_PORT,
    build_miniredis,
)
from .httpd_lighttpd import LIGHTTPD_BINARY, LIGHTTPD_PORT, build_minilight
from .httpd_nginx import NGINX_BINARY, NGINX_PORT, build_mininginx
from .spec import benchmark_names, get_benchmark
from .toolchain import (
    libc_image,
    lighttpd_image,
    nginx_image,
    nginx_worker,
    redis_image,
    spec_image,
    stage_lighttpd,
    stage_nginx,
    stage_redis,
    stage_spec,
)

__all__ = [
    "LIBC_EXPORTS",
    "LIBC_NAME",
    "LIGHTTPD_BINARY",
    "LIGHTTPD_PORT",
    "NGINX_BINARY",
    "NGINX_PORT",
    "REDIS_BINARY",
    "REDIS_PORT",
    "benchmark_names",
    "build_libc",
    "build_minilight",
    "build_mininginx",
    "build_miniredis",
    "get_benchmark",
    "libc_image",
    "lighttpd_image",
    "nginx_image",
    "nginx_worker",
    "redis_image",
    "spec_image",
    "stage_lighttpd",
    "stage_nginx",
    "stage_redis",
    "stage_spec",
]
