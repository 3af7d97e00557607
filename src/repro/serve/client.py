"""Blocking client for the experiment daemon (stdlib ``http.client``).

Used by the load bench, the CI smoke test and anything that wants to
talk to ``python -m repro serve`` without hand-rolling HTTP.  One
connection per request, mirroring the server's ``Connection: close``
discipline.

Backpressure surfaces as :class:`Backpressure` carrying the parsed
``Retry-After``; :meth:`ServeClient.submit_with_retry` is the polite
client loop that honours it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = ["Backpressure", "ServeClient", "ServeError"]


class ServeError(Exception):
    """Non-2xx response from the daemon."""

    def __init__(self, status: int, doc: Any) -> None:
        self.status = status
        self.doc = doc if isinstance(doc, dict) else {}
        message = (
            self.doc.get("message") if isinstance(doc, dict) else None
        ) or f"HTTP {status}"
        super().__init__(message)


class Backpressure(ServeError):
    """429 — the daemon refused the submission; retry later."""

    def __init__(self, status: int, doc: Any, retry_after_s: float) -> None:
        super().__init__(status, doc)
        self.retry_after_s = retry_after_s
        self.reason = self.doc.get("reason", "")


class ServeClient:
    """Minimal one-connection-per-request client."""

    def __init__(
        self, host: str, port: int, timeout_s: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # plumbing

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Any:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout_s if timeout_s is None else timeout_s,
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            doc = self._decode(raw)
            if resp.status == 429:
                raise Backpressure(
                    resp.status, doc, self._retry_after(resp, doc)
                )
            if resp.status >= 400:
                raise ServeError(resp.status, doc)
            return doc
        finally:
            conn.close()

    @staticmethod
    def _decode(raw: bytes) -> Any:
        if not raw:
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return {"message": raw.decode("utf-8", "replace")}

    @staticmethod
    def _retry_after(resp: http.client.HTTPResponse, doc: Any) -> float:
        header = resp.getheader("Retry-After")
        if header is not None:
            try:
                return float(header)
            except ValueError:
                pass
        if isinstance(doc, dict):
            try:
                return float(doc.get("retry_after_s", 1.0))
            except (TypeError, ValueError):
                pass
        return 1.0

    # ------------------------------------------------------------------
    # API

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(
        self,
        specs: Sequence[Dict[str, Any]],
        policy: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"specs": list(specs)}
        if policy:
            body["policy"] = policy
        return self._request("POST", "/jobs", body)

    def submit_with_retry(
        self,
        specs: Sequence[Dict[str, Any]],
        policy: Optional[Dict[str, Any]] = None,
        max_wait_s: float = 120.0,
        sleep=time.sleep,
    ) -> Dict[str, Any]:
        """Submit, honouring 429 ``Retry-After`` until ``max_wait_s``."""
        deadline = time.monotonic() + max_wait_s
        attempts = 0
        while True:
            try:
                doc = self.submit(specs, policy=policy)
                doc["submit_retries"] = attempts
                return doc
            except Backpressure as exc:
                attempts += 1
                delay = min(max(exc.retry_after_s, 0.05), 10.0)
                if time.monotonic() + delay > deadline:
                    raise
                sleep(delay)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def results(
        self,
        job_id: str,
        wait: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream per-point events as they complete (NDJSON lines).

        With ``wait=True`` the stream ends when the job is terminal;
        with ``wait=False`` it returns whatever has finished so far.
        """
        path = f"/jobs/{job_id}/results" + ("?wait=1" if wait else "")
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout_s if timeout_s is None else timeout_s,
        )
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            if resp.status >= 400:
                raise ServeError(resp.status, self._decode(resp.read()))
            buffer = b""
            while True:
                chunk = resp.read(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
            if buffer.strip():
                yield json.loads(buffer)
        finally:
            conn.close()

    def wait_job(
        self, job_id: str, timeout_s: float = 600.0
    ) -> List[Dict[str, Any]]:
        """Block until the job is terminal; return events in grid order.

        Uses the streaming endpoint, then sorts by point index (the
        stream itself is in completion order).
        """
        events = list(self.results(job_id, wait=True, timeout_s=timeout_s))
        events.sort(key=lambda e: e.get("index", 0))
        return events

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self._request("POST", "/shutdown", {"drain": drain})
