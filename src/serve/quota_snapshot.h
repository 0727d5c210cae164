// Forwarding include: QuotaSnapshot lives in quota/quota_snapshot.h.
#pragma once
#include "quota/quota_snapshot.h"
