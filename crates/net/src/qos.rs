//! Per-tenant token-bucket admission control.
//!
//! Every binary-protocol request carries a tenant id in its header (the
//! HTTP gateway takes one as a query parameter); the server debits one
//! token from that tenant's bucket before the request may touch a shard
//! queue. A tenant that outruns its refill rate is answered with a typed
//! [`crate::frame::ErrorCode::Throttled`] — *before* the request consumes
//! queue capacity — so one hot client cannot starve the fleet's admission
//! budget for everyone else.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::time::Instant;

/// Token-bucket parameters applied per tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// Sustained admissions per second each tenant may make.
    pub rate: f64,
    /// Burst ceiling: the bucket's capacity in tokens. New tenants start
    /// full, so a burst up to this size is admitted before pacing begins.
    pub burst: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig { rate: 10_000.0, burst: 1_000.0 }
    }
}

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// The per-tenant bucket map. Buckets are created lazily on first sight
/// of a tenant and start full.
pub struct TenantBuckets {
    config: QosConfig,
    buckets: BTreeMap<u32, Bucket>,
}

impl TenantBuckets {
    /// Buckets governed by `config`.
    pub fn new(config: QosConfig) -> TenantBuckets {
        TenantBuckets { config, buckets: BTreeMap::new() }
    }

    /// Debit one token from `tenant`'s bucket at time `now`. `true` means
    /// admitted; `false` means the tenant is over its rate and the request
    /// must be throttled.
    pub fn admit(&mut self, tenant: u32, now: Instant) -> bool {
        let config = self.config;
        let bucket =
            self.buckets.entry(tenant).or_insert(Bucket { tokens: config.burst, last_refill: now });
        let dt = now.saturating_duration_since(bucket.last_refill).as_secs_f64();
        bucket.last_refill = now;
        bucket.tokens = (bucket.tokens + dt * config.rate).min(config.burst);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_then_throttle_then_refill() {
        let mut buckets = TenantBuckets::new(QosConfig { rate: 10.0, burst: 3.0 });
        let t0 = Instant::now();
        // Full bucket admits exactly the burst.
        assert!(buckets.admit(1, t0));
        assert!(buckets.admit(1, t0));
        assert!(buckets.admit(1, t0));
        assert!(!buckets.admit(1, t0));
        // 100ms at 10 tokens/s refills one token.
        assert!(buckets.admit(1, t0 + Duration::from_millis(100)));
        assert!(!buckets.admit(1, t0 + Duration::from_millis(100)));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut buckets = TenantBuckets::new(QosConfig { rate: 1.0, burst: 1.0 });
        let t0 = Instant::now();
        assert!(buckets.admit(1, t0));
        assert!(!buckets.admit(1, t0));
        // Tenant 2's bucket is untouched by tenant 1's exhaustion.
        assert!(buckets.admit(2, t0));
        assert_eq!(buckets.buckets.len(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut buckets = TenantBuckets::new(QosConfig { rate: 1_000.0, burst: 2.0 });
        let t0 = Instant::now();
        assert!(buckets.admit(7, t0));
        // A long idle period must not bank more than `burst` tokens.
        let later = t0 + Duration::from_secs(60);
        assert!(buckets.admit(7, later));
        assert!(buckets.admit(7, later));
        assert!(!buckets.admit(7, later));
    }
}
